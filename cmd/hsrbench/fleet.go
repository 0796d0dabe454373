package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	terrainhsr "terrainhsr"
	"terrainhsr/internal/fleet"
	"terrainhsr/internal/loadgen"
	"terrainhsr/internal/metrics"
	"terrainhsr/internal/serve"
	"terrainhsr/internal/workload"
)

// lateHandler lets an httptest server start before its replica is built —
// the ring placement depends on the server URLs, and the replicas' cache
// capacity depends on the ring placement.
type lateHandler struct{ h atomic.Value }

// ServeHTTP delegates to the installed handler.
func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := l.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "replica not ready", http.StatusServiceUnavailable)
}

// expFleet: the serving fleet (F1). The same zipf-skewed observer-grid
// stream runs against one replica and against a 3-replica fleet behind the
// consistent-hash router, at an equal total worker budget and equal
// PER-REPLICA cache capacity. The capacity is sized to the largest ring
// shard, so each fleet replica holds its own shard's working set while the
// single replica — facing every terrain with the same per-process cache —
// thrashes. That is the fleet thesis on serving hardware of any core
// count: sharding multiplies effective cache capacity, and on a hot
// workload cache capacity is throughput. Reported: queries/sec, p50/p99
// latency and error rate for both legs, the throughput gain, and a
// body-identity check across the legs (routing must never change answers).
func expFleet(quick bool) {
	nTerrains, gridRows, gridCols, draws, repeats, size := 24, 2, 3, 500, 4, 36
	if quick {
		nTerrains, draws, repeats, size = 12, 200, 3, 28
	}
	clientWorkers := 3

	// Build the terrain set once: the replica-side registrations and the
	// load-side eye derivation use the same generator parameters.
	var named []loadgen.NamedTerrain
	served := make(map[string]*terrainhsr.Terrain, nTerrains)
	totalEyes := 0
	eyesPer := gridRows * gridCols
	for i := 0; i < nTerrains; i++ {
		id := fmt.Sprintf("t%02d", i)
		p := workload.Params{Kind: workload.Fractal, Rows: size, Cols: size, Seed: int64(100 + i), Amplitude: 6}
		named = append(named, loadgen.NamedTerrain{ID: id, T: gen(p)})
		tr, err := terrainhsr.Generate(terrainhsr.GenParams{
			Kind: string(p.Kind), Rows: p.Rows, Cols: p.Cols, Seed: p.Seed, Amplitude: p.Amplitude,
		})
		if err != nil {
			log.Fatalf("hsrbench: generate %s: %v", id, err)
		}
		served[id] = tr
		totalEyes += eyesPer
	}

	// Every replica process — the lone one and each fleet member — runs the
	// same worker config (all CPUs), so the recorded plans (and therefore
	// the response bodies) are identical across legs and the comparison
	// isolates routing + cache capacity.
	newReplica := func(cacheCap int) *terrainhsr.Server {
		s := terrainhsr.NewServer(terrainhsr.ServerOptions{
			Resolution: 0.5, CacheCapacity: cacheCap,
		})
		for id, tr := range served {
			if err := s.Register(id, tr); err != nil {
				log.Fatalf("hsrbench: register %s: %v", id, err)
			}
		}
		return s
	}

	// Fleet leg: three replicas behind the router. The httptest URLs must
	// exist before the ring placement (and so the shard-sized cache
	// capacity) can be computed, hence the late handlers.
	const fleetSize = 3
	handlers := make([]*lateHandler, fleetSize)
	urls := make([]string, fleetSize)
	for i := range handlers {
		handlers[i] = &lateHandler{}
		srv := httptest.NewServer(handlers[i])
		defer srv.Close()
		urls[i] = srv.URL
	}
	ring := fleet.NewRing(0)
	ring.Add(urls...)
	shardEyes := make(map[string]int, fleetSize)
	for id := range served {
		shardEyes[ring.Lookup(id)] += eyesPer
	}
	maxShard := 0
	for _, n := range shardEyes {
		if n > maxShard {
			maxShard = n
		}
	}
	// Equal per-replica resources: every process (single or fleet member)
	// gets a cache big enough for the largest shard, no bigger.
	cacheCap := maxShard
	for i := range handlers {
		handlers[i].h.Store(serve.New(newReplica(cacheCap), serve.Options{}))
	}
	rt, err := fleet.New(fleet.Options{
		Replicas:      urls,
		HedgeAfter:    -1, // measured legs stay deterministic: one solver per query
		ProbeInterval: -1,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		log.Fatalf("hsrbench: fleet router: %v", err)
	}
	rt.Start()
	defer rt.Close()
	routerSrv := httptest.NewServer(rt)
	defer routerSrv.Close()

	// Single leg: one replica with the same per-replica cache capacity and
	// the whole worker budget.
	singleSrv := httptest.NewServer(serve.New(newReplica(cacheCap), serve.Options{}))
	defer singleSrv.Close()

	fmt.Printf("%d terrains (%dx%d) x %d eyes = %d distinct queries; per-replica cache %d (largest shard; shards %v)\n",
		nTerrains, size, size, eyesPer, totalEyes, cacheCap, shardCounts(shardEyes, urls))
	fmt.Printf("stream: %d zipf draws x %d repeats, %d client workers\n", draws, repeats, clientWorkers)

	scenario := func(base string) []loadgen.Request {
		reqs, err := loadgen.Scenario(loadgen.ScenarioOptions{
			BaseURL:  base,
			Terrains: named,
			GridRows: gridRows, GridCols: gridCols,
			Mix:   "grid",
			ZipfS: 1.05, // mild skew: hot terrains dominate, the tail still breathes
			Count: draws,
			Seed:  11,
		})
		if err != nil {
			log.Fatalf("hsrbench: scenario: %v", err)
		}
		return reqs
	}
	// Both legs measure steady-state serving: one unmeasured
	// warming pass lets each leg cache what its capacity can hold, then the
	// timed repeats replay the stream. The single replica keeps missing in
	// steady state — its cache cannot hold the working set — which is the
	// capacity effect the fleet removes. The timed runs read every body but
	// skip the hashing client (it costs client CPU on the serving machine);
	// identity is asserted by a separate unmeasured checking pass per leg.
	runLeg := func(base string) (loadgen.Report, loadgen.Report) {
		reqs := scenario(base)
		loadgen.Run(loadgen.Options{Workers: clientWorkers, Timeout: 5 * time.Minute}, reqs)
		timed := loadgen.Run(loadgen.Options{
			Workers: clientWorkers, Repeats: repeats,
			Timeout: 5 * time.Minute,
		}, reqs)
		checked := loadgen.Run(loadgen.Options{
			Workers: clientWorkers, Repeats: 2, CheckBodies: true,
			Timeout: 5 * time.Minute,
		}, reqs)
		return timed, checked
	}

	single, singleCheck := runLeg(singleSrv.URL)
	fleetRep, fleetCheck := runLeg(routerSrv.URL)

	// Identity across legs: every query key must hash identically whether
	// one replica or the routed fleet answered it.
	identityDiffs := singleCheck.Mismatches + fleetCheck.Mismatches
	for key, h := range singleCheck.Hashes {
		if h2, ok := fleetCheck.Hashes[key]; ok && h2 != h {
			identityDiffs++
		}
	}

	gain := 0.0
	if single.QPS > 0 {
		gain = fleetRep.QPS / single.QPS
	}
	tb := metrics.NewTable("variant", "qps", "p50", "p99", "errors", "mismatches", "wall")
	tb.AddRow("single-1", fmt.Sprintf("%.1f", single.QPS), ms(single.P50), ms(single.P99),
		single.Errors+singleCheck.Errors, singleCheck.Mismatches, ms(single.Wall))
	tb.AddRow("fleet-3", fmt.Sprintf("%.1f", fleetRep.QPS), ms(fleetRep.P50), ms(fleetRep.P99),
		fleetRep.Errors+fleetCheck.Errors, fleetCheck.Mismatches, ms(fleetRep.Wall))
	tb.Render(os.Stdout)
	fmt.Printf("fleet qps gain %.2fx (capacity advantage %.2fx); cross-leg identity diffs %d over %d keys\n",
		gain, float64(totalEyes)/float64(cacheCap), identityDiffs, len(singleCheck.Hashes))
}

// shardCounts renders the per-replica shard sizes in replica order.
func shardCounts(shardEyes map[string]int, urls []string) []int {
	out := make([]int, len(urls))
	for i, u := range urls {
		out[i] = shardEyes[u]
	}
	return out
}
