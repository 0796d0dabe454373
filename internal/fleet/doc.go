// Package fleet is the multi-node serving tier: a consistent-hash ring
// mapping viewshed queries to replicas, and an HTTP router that proxies
// the internal/serve endpoints across a shared-nothing fleet of hsrserved
// replicas with hedged requests, per-replica health probing with ejection
// and readmission, and fleet-wide /statsz aggregation.
//
// The design follows the roadmap's serving north star rather than a
// section of the paper: one hsrserved process is a throughput ceiling,
// and Haverkort & Toma's comparison of I/O-efficient visibility
// algorithms (PAPERS.md) shows that at massive-terrain scale the binding
// cost is data movement, not compute — exactly what a replica fleet over
// one shared store directory exploits. RegisterStore reads only the
// manifest and the result cache is epoch-keyed, so replicas are cheap to
// spin up and any replica can answer any query; placement is purely a
// locality policy, never a correctness constraint.
//
// Placement. The Ring hashes each replica to VNodes pseudo-random points
// on a 64-bit circle; a query key walks clockwise to the first point and
// its owner is the primary replica, with the following distinct owners as
// hedge/failover successors. Keys are terrain IDs — the cache-locality
// unit, since the result cache keys on (terrain, epoch, eye, options) —
// except for huge terrains (finest level at least HugeVertices vertices),
// which shard per pyramid level (ShardKey id#L<n>): one massive terrain
// then spreads its levels, and their page-in I/O and residency, across
// the fleet instead of concentrating on one replica. Because member
// points depend only on the member's own name, adding or removing a
// replica moves only the keys whose nearest point changed — about K/n of
// them — and never reshuffles the rest (asserted by the ring tests).
//
// Hedging. The router launches the query against the primary; if no
// response header arrives within HedgeAfter (a budget an operator sets
// near the fleet's p99), it launches the same query against the next
// successor, and the first response wins — the classic tail-at-scale
// defense. Transport errors and 5xx responses fail over immediately and
// count against the replica's health; client errors (4xx) pass through
// untouched, since every replica would answer them identically. GET-only
// traffic makes hedges safe to repeat; responses stream through the
// router piece by piece, so hedging never buffers a scene.
//
// Health. A prober hits every replica's /healthz on ProbeInterval;
// EjectAfter consecutive failures (probe or proxy) eject a replica from
// routing, and the first success readmits it. Ejection reorders routing
// preference but never empties it: with every replica ejected the router
// still tries the ring order rather than refusing traffic.
//
// Statsz. A replica publishes one document, its /statsz ServerStats:
// counters, per-terrain ledgers and the stage latency histograms (Stages).
// The router's /statsz fans out to every configured replica — including
// ejected ones — and sums their ServerStats into a fleet snapshot via
// terrainhsr.ServerStats.Add, the only cross-process merge, reporting each
// replica's health and error alongside; a down replica is reported, never
// silently dropped. The router's /metricsz renders its own request and
// attempt series merged with that rollup's Stages, and the admin warm-up
// check reads the same replica /statsz. The router's own counters
// (routed, hedged, hedge wins, failovers, ejections, adds, removes) ride
// along on /fleetz, with the per-key placement and serve ledger.
//
// Membership. The fleet is elastic at runtime: with AdminToken set, the
// authenticated /adminz surface admits and removes replicas while
// traffic flows (see admin.go for the add → warming → active and
// active → draining → gone state machines, and AdminClient for the
// programmatic surface). Removal is drain-before-remove — out of the
// ring first, then every in-flight attempt finishes — so membership
// changes are invisible to clients; admission is warm-up-before-traffic,
// replaying recorded hot queries for the joiner's keys and verifying
// warmth against its cache counters. Health is orthogonal to
// membership: the prober ejects and readmits members, /adminz changes
// who the members are.
//
// Replication. Options.Replication serves a hot terrain's keys from its
// first R ring successors instead of one owner, rotating the primary per
// request; hedges escalate beyond the group. Identity is unchanged —
// every group member answers byte-identically — so replication trades R
// caches holding the working set for R replicas' throughput on a
// scorching terrain.
package fleet
