package terrainhsr

import (
	"fmt"
	"strings"

	"terrainhsr/internal/obs"
)

// ServerStats is a point-in-time snapshot of the server's counters, ledgers
// and stage latency histograms: the one document /statsz publishes.
type ServerStats struct {
	// Terrains is the number of registered terrains.
	Terrains int
	// CacheEntries is the number of results currently cached.
	CacheEntries int
	// Hits, Misses and Coalesced classify every cache-eligible query:
	// served from the cache, solved by this query, or waited on an
	// identical in-flight query and shared its answer.
	Hits, Misses, Coalesced int64
	// Evictions counts cached results displaced by capacity pressure.
	Evictions int64
	// Solves counts solve executions, including NoCache bypasses; with a
	// warm cache it grows much more slowly than the query count.
	Solves int64
	// TiledSolves counts the subset of Solves routed through the tiled
	// engine.
	TiledSolves int64
	// SessionFrames counts frames answered by QuerySession, and
	// SessionReplays the subset served by replaying the previous frame's
	// recorded stream (bitwise-identical eye) without solving at all.
	SessionFrames, SessionReplays int64
	// TilesReused, TilesReverified, TilesResolved and VerifyFailures
	// aggregate the per-frame reuse ledger of every session frame solved so
	// far (see ReuseStats for the per-frame meaning): how much of the fleet's
	// flyover traffic the verify-then-reuse machinery actually saved.
	TilesReused, TilesReverified, TilesResolved, VerifyFailures int64
	// Plans maps every registered terrain ID to the explained engine plan
	// its queries route through — the operator-facing answer to "which
	// engine does this terrain's traffic actually take, and why". Exposed
	// verbatim on /statsz by cmd/hsrserved.
	Plans map[string]string
	// LevelQueries maps every store-backed terrain ID to its per-level
	// answered-query counts (index 0 = finest): the LOD hit profile that
	// tells an operator which resolutions the traffic actually consumes.
	LevelQueries map[string][]int64
	// StoreBytes maps every store-backed terrain ID to the cumulative
	// tile-file bytes its store has read so far — the paging cost of
	// Haverkort & Toma's accounting, visible per terrain. The counter never
	// decreases; on a culling workload it stays strictly below the level's
	// on-disk bytes, proving hidden tiles were never read.
	StoreBytes map[string]int64
	// ResidentBytes maps every store-backed terrain ID to the height bytes
	// its store currently holds in memory (assembled levels plus pager
	// blocks). Unlike StoreBytes it falls as bands retire and levels drop —
	// the live-memory side of the out-of-core ledger.
	ResidentBytes map[string]int64
	// PageIns maps every store-backed terrain ID to the number of tile-file
	// reads its out-of-core levels have performed (demand and read-ahead;
	// re-reads after eviction count again). Zero for terrains whose levels
	// all run in core.
	PageIns map[string]int64
	// Stages holds the server's per-stage, per-plan-mode latency histograms
	// (Server.Metrics): every answered query's plan, cache, solve, merge and
	// page-in wait, plus the serve tier's whole HTTP requests. /metricsz
	// renders the same registry as Prometheus text.
	Stages obs.RegistrySnapshot
}

// Add accumulates another snapshot into s — the fleet aggregation behind
// the router's /statsz (internal/fleet, cmd/hsrrouter): summing the
// snapshots of every replica in a shared-nothing fleet yields the fleet's
// own ServerStats. Counters (hits, misses, coalesced, evictions, solves,
// cache entries) and the per-terrain ledgers (LevelQueries elementwise,
// StoreBytes, ResidentBytes, PageIns) add; Terrains takes the maximum,
// since replicas of one fleet register the same terrain set rather than
// disjoint ones; Plans keeps the first non-empty explanation per terrain,
// since every replica plans identically for identical flags; Stages merges
// histogram series (obs.RegistrySnapshot.Merge: series sharing a stage and
// mode add bucket by bucket, exactly, and the rest append). ServerStats
// has no custom JSON marshalling — field names are the wire format of
// /statsz — so a snapshot survives an HTTP round trip and Add composes
// across processes.
func (s *ServerStats) Add(o ServerStats) {
	if o.Terrains > s.Terrains {
		s.Terrains = o.Terrains
	}
	s.CacheEntries += o.CacheEntries
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Coalesced += o.Coalesced
	s.Evictions += o.Evictions
	s.Solves += o.Solves
	s.TiledSolves += o.TiledSolves
	s.SessionFrames += o.SessionFrames
	s.SessionReplays += o.SessionReplays
	s.TilesReused += o.TilesReused
	s.TilesReverified += o.TilesReverified
	s.TilesResolved += o.TilesResolved
	s.VerifyFailures += o.VerifyFailures
	for id, plan := range o.Plans {
		if s.Plans == nil {
			s.Plans = make(map[string]string)
		}
		if s.Plans[id] == "" {
			s.Plans[id] = plan
		}
	}
	for id, hits := range o.LevelQueries {
		if s.LevelQueries == nil {
			s.LevelQueries = make(map[string][]int64)
		}
		have := s.LevelQueries[id]
		if len(hits) > len(have) {
			have = append(have, make([]int64, len(hits)-len(have))...)
		}
		for l, n := range hits {
			have[l] += n
		}
		s.LevelQueries[id] = have
	}
	addByID := func(dst *map[string]int64, src map[string]int64) {
		for id, n := range src {
			if *dst == nil {
				*dst = make(map[string]int64)
			}
			(*dst)[id] += n
		}
	}
	addByID(&s.StoreBytes, o.StoreBytes)
	addByID(&s.ResidentBytes, o.ResidentBytes)
	addByID(&s.PageIns, o.PageIns)
	s.Stages.Merge(o.Stages)
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	s.mu.RLock()
	terrains := len(s.terrains)
	plans := make(map[string]string, terrains)
	levelQueries := make(map[string][]int64)
	storeBytes := make(map[string]int64)
	residentBytes := make(map[string]int64)
	pageIns := make(map[string]int64)
	for id, e := range s.terrains {
		if e.st == nil {
			plans[id], _, _ = e.planFor(0, Parallel)
			continue
		}
		hits := make([]int64, len(e.lv))
		var ins int64
		e.mu.Lock()
		for l := range e.lv {
			hits[l] = e.lv[l].hits.Load()
			if pg := e.lv[l].pager; pg != nil {
				ins += pg.PageIns()
			}
		}
		e.mu.Unlock()
		levelQueries[id] = hits
		storeBytes[id] = e.st.BytesLoaded()
		residentBytes[id] = e.st.ResidentBytes()
		pageIns[id] = ins
		// Report the per-level plans solved so far; levels never queried
		// stay described by the registration summary.
		var parts []string
		for l := range hits {
			if p, _, _ := e.planFor(l, Parallel); p != "" {
				parts = append(parts, fmt.Sprintf("level %d: %s", l, p))
			}
		}
		if len(parts) == 0 {
			plans[id] = s.storeSummary(e)
		} else {
			plans[id] = strings.Join(parts, " || ")
		}
	}
	s.mu.RUnlock()
	st := ServerStats{
		Terrains:        terrains,
		Solves:          s.solves.Load(),
		TiledSolves:     s.tiledSolves.Load(),
		SessionFrames:   s.sessionFrames.Load(),
		SessionReplays:  s.sessionReplays.Load(),
		TilesReused:     s.tilesReused.Load(),
		TilesReverified: s.tilesReverified.Load(),
		TilesResolved:   s.tilesResolved.Load(),
		VerifyFailures:  s.verifyFailures.Load(),
		Plans:           plans,
		LevelQueries:    levelQueries,
		StoreBytes:      storeBytes,
		ResidentBytes:   residentBytes,
		PageIns:         pageIns,
		Stages:          s.metrics.Snapshot(),
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.CacheEntries = cs.Entries
		st.Hits, st.Misses, st.Coalesced, st.Evictions = cs.Hits, cs.Misses, cs.Coalesced, cs.Evictions
	}
	return st
}
