package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	terrainhsr "terrainhsr"
)

// ReplicaStats is one replica's contribution to the fleet's /statsz: its
// snapshot when it answered, or the error when it did not. A down replica
// is always listed — Healthy false, Error set — never silently dropped,
// so an aggregated counter that looks low can be traced to the replica
// that failed to report rather than mistaken for real traffic loss.
type ReplicaStats struct {
	// Addr is the replica's base URL.
	Addr string `json:"addr"`
	// Healthy reports whether this statsz fetch succeeded (it is the
	// fetch's own outcome, not the prober's cached state, so a freshly
	// recovered replica reports healthy here before its readmission).
	Healthy bool `json:"healthy"`
	// Error is the fetch failure, when Healthy is false.
	Error string `json:"error,omitempty"`
	// Stats is the replica's own snapshot, when Healthy.
	Stats *terrainhsr.ServerStats `json:"stats,omitempty"`
}

// FleetStats is the router's aggregated /statsz body: the per-replica
// snapshots and their sum.
type FleetStats struct {
	// Replicas lists every configured replica's snapshot or fetch error,
	// in configured order.
	Replicas []ReplicaStats `json:"replicas"`
	// Reporting and Down count the replicas that did and did not answer.
	Reporting int `json:"reporting"`
	Down      int `json:"down"`
	// Fleet is the sum of every reporting replica's ServerStats
	// (terrainhsr.ServerStats.Add): fleet-wide hits, misses, solves,
	// per-terrain level queries, store bytes, resident bytes and
	// page-ins.
	Fleet terrainhsr.ServerStats `json:"fleet"`
	// Counters are the router's own traffic counters.
	Counters RouterCounters `json:"counters"`
}

// AggregateStats sums per-replica snapshots into a fleet snapshot. It is
// the pure half of the router's /statsz, separated so tests can feed it
// fabricated replica stats.
func AggregateStats(replicas []ReplicaStats) FleetStats {
	out := FleetStats{Replicas: replicas}
	for _, r := range replicas {
		if !r.Healthy || r.Stats == nil {
			out.Down++
			continue
		}
		out.Reporting++
		out.Fleet.Add(*r.Stats)
	}
	return out
}

// FetchStats fetches every configured replica's /statsz concurrently —
// including ejected replicas, which may still answer — and returns the
// per-replica outcomes in configured order.
func (rt *Router) FetchStats() []ReplicaStats {
	reps := rt.snapshotReplicas()
	out := make([]ReplicaStats, len(reps))
	var wg sync.WaitGroup
	for i, r := range reps {
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			out[i] = rt.fetchOneStats(r)
		}(i, r)
	}
	wg.Wait()
	return out
}

// fetchOneStats fetches one replica's /statsz snapshot.
func (rt *Router) fetchOneStats(r *replica) ReplicaStats {
	resp, err := rt.client.Get(r.addr + "/statsz")
	if err != nil {
		return ReplicaStats{Addr: r.addr, Error: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return ReplicaStats{Addr: r.addr, Error: fmt.Sprintf("statsz: %s", resp.Status)}
	}
	var st terrainhsr.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return ReplicaStats{Addr: r.addr, Error: "parse statsz: " + err.Error()}
	}
	return ReplicaStats{Addr: r.addr, Healthy: true, Stats: &st}
}

// statsz serves the aggregated fleet snapshot.
func (rt *Router) statsz(w http.ResponseWriter, _ *http.Request) {
	fs := AggregateStats(rt.FetchStats())
	fs.Counters = rt.Counters()
	writeJSON(w, fs)
}

// metricsz serves the fleet's merged latency histograms: the router's own
// series (request and attempt, whose modes — "router", "winner", "loser" —
// never collide with the replicas' engine plan modes) merged with the
// fleet rollup of the replicas' /statsz Stages, so /statsz and /metricsz
// read one fan-out and one merge. Prometheus text by default, the merged
// JSON snapshot with ?format=json.
func (rt *Router) metricsz(w http.ResponseWriter, req *http.Request) {
	snap := rt.metrics.Snapshot()
	snap.Merge(AggregateStats(rt.FetchStats()).Fleet.Stages)
	snap.Serve(w, req)
}
