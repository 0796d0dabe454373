// Package loadgen is the workload-driven traffic generator behind
// cmd/hsrload and the fleet experiments: it turns the repository's
// synthetic scenario generators (internal/workload) into streams of
// /viewshed and /flyover HTTP requests — observer-grid query streams,
// flyover sessions walking a camera path frame by frame (per eye through
// /viewshed, or as short frame-coherent /flyover legs), and zipf-skewed
// terrain popularity so a few hot terrains absorb most of the traffic, the
// shape production viewshed serving actually has — and replays them
// against a replica or a fleet router with a fixed worker count, reporting
// queries/sec, p50/p90/p99/max latency, error rate and (optionally) a
// normalized-body identity check.
//
// The identity check hashes each response body after zeroing the
// legitimately volatile fields (elapsed_ms, the cache outcome, and the
// session reuse ledger — replayed and the tile reuse counters, which
// depend on what the serving session happened to remember, never on what
// it answered) and asserts that every response for the same query key
// hashes identically — across repeats, replicas, and routed vs direct
// legs. It is the load-level form of the fleet identity guarantee:
// routing, hedging and failover may change who answers, never what is
// answered.
//
// Reports convert to Record rows, which WriteRecords saves as the JSON
// array hsrload -json writes.
package loadgen
