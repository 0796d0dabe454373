package terrainhsr

import (
	"testing"

	"terrainhsr/internal/obs"
)

// TestTracedQueryByteIdentical is the observability invariant: tracing a
// query — sampled or not — never changes the solved bytes. Every
// algorithm is solved on an untraced server and on a server whose every
// query carries a sampled trace; the pieces must match exactly.
func TestTracedQueryByteIdentical(t *testing.T) {
	tr := genTest(t, "fractal", 12, 12, 5)
	plain := NewServer(ServerOptions{Resolution: 0.25})
	traced := NewServer(ServerOptions{Resolution: 0.25})
	for _, s := range []*Server{plain, traced} {
		if err := s.Register("hill", tr); err != nil {
			t.Fatal(err)
		}
	}
	tracer := obs.NewTracer(1, 16)
	for _, algo := range []Algorithm{Parallel, ParallelHulls, Sequential, SequentialTree, ParallelCopying} {
		q := Query{TerrainID: "hill", Eye: serverEye(0.07, -0.04, 0.11), Algorithm: algo, MinDepth: 0.5}
		want, err := plain.Query(q)
		if err != nil {
			t.Fatalf("%s: untraced: %v", algo, err)
		}
		q.Trace = tracer.Start()
		got, err := traced.Query(q)
		if err != nil {
			t.Fatalf("%s: traced: %v", algo, err)
		}
		tracer.Finish(q.Trace)
		piecesEqual(t, string(algo)+": traced vs untraced", want.Result.Pieces(), got.Result.Pieces())
		if got.Cost == nil {
			t.Fatalf("%s: traced query carries no cost ledger", algo)
		}
	}
}

// TestQueryCostLedger checks the attribution contract: a miss pays plan
// and solve time and reports the work breakdown; a warm hit pays only
// cache time but still reports the shared answer's sizes.
func TestQueryCostLedger(t *testing.T) {
	tr := genTest(t, "ridge", 12, 12, 9)
	s := NewServer(ServerOptions{Resolution: 0.5})
	if err := s.Register("r", tr); err != nil {
		t.Fatal(err)
	}
	q := Query{TerrainID: "r", Eye: serverEye(0, 0, 0)}
	miss, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cache != "miss" || miss.Cost == nil {
		t.Fatalf("first query: cache=%q cost=%v", miss.Cache, miss.Cost)
	}
	if miss.Cost.SolveUS <= 0 || miss.Cost.N == 0 || miss.Cost.K == 0 || miss.Cost.Work == 0 {
		t.Fatalf("miss ledger not attributed: %+v", *miss.Cost)
	}
	if miss.Mode == "" {
		t.Fatalf("miss reports no plan mode")
	}
	hit, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Cache != "hit" || hit.Cost == nil {
		t.Fatalf("second query: cache=%q cost=%v", hit.Cache, hit.Cost)
	}
	if hit.Cost.PlanUS != 0 || hit.Cost.SolveUS != 0 || hit.Cost.Work != 0 {
		t.Fatalf("hit charged solve work it did not do: %+v", *hit.Cost)
	}
	if hit.Cost.N != miss.Cost.N || hit.Cost.K != miss.Cost.K {
		t.Fatalf("hit sizes %d/%d, want the shared answer's %d/%d",
			hit.Cost.N, hit.Cost.K, miss.Cost.N, miss.Cost.K)
	}
	if hit.Mode != miss.Mode {
		t.Fatalf("hit mode %q, want %q", hit.Mode, miss.Mode)
	}
}

// TestWarmHitUnsampledAllocs pins the allocation budget of the unsampled
// hot path: a warm cache hit with a nil trace. The obs layer must add
// zero allocations here — every attribute build is guarded by Sampled()
// and a nil *Trace is a no-op — so the budget is the path's pre-existing
// cost (result wrapper, ledger, map lookups) with headroom for the
// runtime, not for instrumentation. If this creeps up, look for an
// unguarded EndSpanAttrs or an attr built outside a Sampled() guard.
func TestWarmHitUnsampledAllocs(t *testing.T) {
	tr := genTest(t, "fractal", 10, 10, 3)
	s := NewServer(ServerOptions{Resolution: 0.5})
	if err := s.Register("h", tr); err != nil {
		t.Fatal(err)
	}
	q := Query{TerrainID: "h", Eye: serverEye(0, 0, 0)}
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm unsampled hit: %.1f allocs/query", allocs)
	const budget = 12
	if allocs > budget {
		t.Fatalf("warm unsampled cache hit allocates %.0f objects, budget %d", allocs, budget)
	}
}

// TestStatsStagesRecordLibraryTraffic checks that the stage histograms fill
// without any serve handler: a miss records plan, cache and solve under its
// plan mode, a hit records cache only, and a session frame records solve
// under "coherent" — all visible in Stats().Stages.
func TestStatsStagesRecordLibraryTraffic(t *testing.T) {
	tr := genTest(t, "fractal", 10, 10, 3)
	s := NewServer(ServerOptions{})
	if err := s.Register("h", tr); err != nil {
		t.Fatal(err)
	}
	check := func(what string, want map[string]uint64) {
		t.Helper()
		got := map[string]uint64{}
		for _, e := range s.Stats().Stages.Hists {
			got[e.Stage+"/"+e.Mode] = e.Hist.Count
		}
		if len(got) != len(want) {
			t.Fatalf("after %s: stages %v, want %v", what, got, want)
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("after %s: stages %v, want %v", what, got, want)
			}
		}
	}
	q := Query{TerrainID: "h", Eye: serverEye(0, 0, 0)}
	miss, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cache != "miss" {
		t.Fatalf("first query answered %q, want a miss", miss.Cache)
	}
	m := miss.Mode
	check("a miss", map[string]uint64{obs.StagePlan + "/" + m: 1, obs.StageCache + "/" + m: 1, obs.StageSolve + "/" + m: 1})
	if hit, err := s.Query(q); err != nil || hit.Cache != "hit" {
		t.Fatalf("second query: %v, %v; want a hit", hit, err)
	}
	check("a hit", map[string]uint64{obs.StagePlan + "/" + m: 1, obs.StageCache + "/" + m: 2, obs.StageSolve + "/" + m: 1})
	if _, err := s.QuerySession(q, func(Piece) error { return nil }); err != nil {
		t.Fatal(err)
	}
	check("a session frame", map[string]uint64{
		obs.StagePlan + "/" + m: 1, obs.StageCache + "/" + m: 2, obs.StageSolve + "/" + m: 1,
		obs.StageSolve + "/coherent": 1,
	})
}
