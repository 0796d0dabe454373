package terrainhsr

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestStoreSessionFramesMatchQuery runs flyover sessions on store-backed
// terrains — resident and out-of-core, finest and coarse levels — and holds
// every frame to the point-query contract: the streamed pieces are
// byte-identical to Query's answer for the same eye and budget, and the
// frame reports the same answering level.
func TestStoreSessionFramesMatchQuery(t *testing.T) {
	demPath := writeRidgeASC(t, 64, 64)
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := BuildStore(demPath, dir, StoreOptions{TileSamples: 16}); err != nil {
		t.Fatal(err)
	}
	base := LinePath(Point{X: -12, Y: 20, Z: 64}, Point{X: -9, Y: 26, Z: 70}, 3).Viewpoints()
	path := append(base, base[2]) // a dwell: the last frame replays

	for _, tc := range []struct {
		name      string
		opt       ServerOptions
		budget    float64
		wantLevel int
		planHas   string // the session plan's underlying pipeline
	}{
		{"in-core finest", ServerOptions{}, 0, 0, "over batched frames"},
		{"in-core tiled finest", ServerOptions{TileCells: 1}, 0, 0, "over batched-tiled frames"},
		{"in-core coarse", ServerOptions{}, 2, 1, "over batched frames"},
		{"out-of-core finest", ServerOptions{ResidencyBudget: oocBudget(t)}, 0, 0, "over out-of-core frames"},
		{"out-of-core server, coarse level", ServerOptions{ResidencyBudget: oocBudget(t)}, 2, 1, "over batched frames"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(tc.opt)
			if err := s.RegisterStore("dem", dir); err != nil {
				t.Fatal(err)
			}
			replays := 0
			for f, eye := range path {
				q := Query{TerrainID: "dem", Eye: eye, ErrorBudget: tc.budget, MinDepth: 1}
				var got []Piece
				fr, err := s.QuerySession(q, func(p Piece) error { got = append(got, p); return nil })
				if err != nil {
					t.Fatalf("frame %d: %v", f, err)
				}
				if f == 0 {
					// The first frame recorded the level's plan, not coherent.
					plans := s.Stats().Plans["dem"]
					if !strings.Contains(plans, fmt.Sprintf("level %d: engine=", tc.wantLevel)) ||
						strings.Contains(plans, "engine=coherent") {
						t.Fatalf("after one session frame Stats().Plans reads %q", plans)
					}
				}
				want, err := s.Query(q)
				if err != nil {
					t.Fatalf("frame %d: %v", f, err)
				}
				label := fmt.Sprintf("frame %d", f)
				piecesEqual(t, label, want.Result.Pieces(), got)
				if fr.Level != tc.wantLevel || fr.Level != want.Level || fr.Levels != want.Levels ||
					fr.LevelCellSize != want.LevelCellSize {
					t.Fatalf("%s: session level %d/%d cell %v, query level %d/%d cell %v, want level %d",
						label, fr.Level, fr.Levels, fr.LevelCellSize,
						want.Level, want.Levels, want.LevelCellSize, tc.wantLevel)
				}
				if len(got) == 0 {
					t.Fatalf("%s: the eye sees nothing; the path proves nothing", label)
				}
				if fr.Mode != "coherent" || !strings.Contains(fr.Plan, tc.planHas) {
					t.Fatalf("%s: session mode %q plan %q, want a coherent plan %s", label, fr.Mode, fr.Plan, tc.planHas)
				}
				// Sessions plan through the level planner, as queries do: the
				// level stamp and the budget reason are in the plan.
				stamp := fmt.Sprintf("level=%d/%d (cell %g)", tc.wantLevel, fr.Levels, fr.LevelCellSize)
				if !strings.Contains(fr.Plan, stamp) || !strings.Contains(fr.Plan, "error budget") {
					t.Fatalf("%s: session plan %q lacks %q or the budget reason", label, fr.Plan, stamp)
				}
				// Queries, cache hits included, report the level's own pipeline.
				if !strings.Contains(tc.planHas, "over "+want.Mode+" frames") {
					t.Fatalf("%s: %s query mode %q, want the pipeline %s", label, want.Cache, want.Mode, tc.planHas)
				}
				if fr.Reuse.Replayed {
					replays++
				}
			}
			if replays != 1 {
				t.Fatalf("%d replays over a path with one dwell frame, want 1", replays)
			}
			st := s.Stats()
			if got := st.LevelQueries["dem"][tc.wantLevel]; got != 2*int64(len(path)) {
				t.Fatalf("level %d counted %d answers, want %d (sessions and queries)", tc.wantLevel, got, 2*len(path))
			}
		})
	}
}

// TestQueryManyMissReportsSolvedPlan: a plain terrain's QueryMany miss
// reports the worker split its solve actually ran with — the server budget
// shared between the concurrent eyes — while cache hits and single queries
// report the plan recorded at registration.
func TestQueryManyMissReportsSolvedPlan(t *testing.T) {
	s := NewServer(ServerOptions{Workers: 4})
	if err := s.Register("t", genTest(t, "fractal", 10, 10, 3)); err != nil {
		t.Fatal(err)
	}
	registered := s.Stats().Plans["t"]
	if !strings.Contains(registered, "(1 concurrent x 4 workers each)") {
		t.Fatalf("registration plan %q, want the full budget on one frame", registered)
	}
	eyes := []Point{serverEye(0, 0, 0), serverEye(-1, 1, -2)}
	rs, err := s.QueryMany(Query{TerrainID: "t"}, eyes)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Cache != "miss" || !strings.Contains(r.Plan, "workers=2 frames=1 (1 concurrent x 2 workers each)") {
			t.Fatalf("eye %d: %s answer with plan %q, want a miss solved on half the budget", i, r.Cache, r.Plan)
		}
	}
	rs, err = s.QueryMany(Query{TerrainID: "t"}, eyes)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Cache != "hit" || r.Plan != registered {
			t.Fatalf("eye %d: %s answer with plan %q, want a hit reporting %q", i, r.Cache, r.Plan, registered)
		}
	}
	r, err := s.Query(Query{TerrainID: "t", Eye: serverEye(1, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache != "miss" || r.Plan != registered {
		t.Fatalf("single query: %s answer with plan %q, want %q", r.Cache, r.Plan, registered)
	}
	if got := s.Stats().Plans["t"]; got != registered {
		t.Fatalf("Stats plan changed to %q after QueryMany, want %q", got, registered)
	}
}

// TestCacheHitReportsItsAlgorithmsKernel: a level records one plan per
// algorithm, because the plan names the kernel that ran. A cache hit then
// reports the kernel its own algorithm's miss ran, not the default's.
func TestCacheHitReportsItsAlgorithmsKernel(t *testing.T) {
	s := NewServer(ServerOptions{Workers: 2, TileCells: 1})
	if err := s.Register("t", genTest(t, "fractal", 10, 10, 3)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		algo   Algorithm
		kernel string
	}{{"", "sequential-tree"}, {Sequential, "sequential"}, {ParallelHulls, "parallel-hulls"}} {
		for _, want := range []string{"miss", "hit"} {
			r, err := s.Query(Query{TerrainID: "t", Eye: serverEye(0, 0, 0), Algorithm: tc.algo})
			if err != nil {
				t.Fatal(err)
			}
			if r.Cache != want || !strings.Contains(r.Plan, " kernel="+tc.kernel) {
				t.Fatalf("algorithm %q: %s answer with plan %q, want a %s reporting kernel=%s", tc.algo, r.Cache, r.Plan, want, tc.kernel)
			}
		}
	}
	if got := s.Stats().Plans["t"]; !strings.Contains(got, " kernel=sequential-tree") {
		t.Fatalf("Stats plan %q, want the default algorithm's", got)
	}
}
