package engine

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/tile"
)

// testGrid builds an 8x8-cell grid terrain (64 cells).
func testGrid(t *testing.T) *terrain.Terrain {
	t.Helper()
	tt, err := terrain.Grid{Rows: 8, Cols: 8, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return float64((i*3+j*5)%7) * 0.5 }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

// testAltGrid builds an 8x8-cell grid with alternating diagonals: a grid in
// shape but not in the canonical triangulation tiling numbers by.
func testAltGrid(t *testing.T) *terrain.Terrain {
	t.Helper()
	tt, err := terrain.Grid{Rows: 8, Cols: 8, Dx: 1, Dy: 1, AlternateDiagonals: true,
		H: func(i, j int) float64 { return float64((i*3+j*5)%7) * 0.5 }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

// testTIN builds a terrain without grid structure.
func testTIN(t *testing.T) *terrain.Terrain {
	t.Helper()
	tt, err := terrain.New([]geom.Pt3{
		{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0.1, Z: 0.5}, {X: 0.2, Y: 1, Z: 0.25}, {X: 1.1, Y: 1.2, Z: 1},
	}, [][3]int32{{0, 1, 2}, {1, 3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestPlannerRouting(t *testing.T) {
	grid := testGrid(t)
	alt := testAltGrid(t)
	tin := testTIN(t)
	defaultSized, err := terrain.Grid{Rows: 512, Cols: 512, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return 0 }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if n := defaultSized.GridRows * defaultSized.GridCols; n != DefaultTileCells {
		t.Fatalf("default-sized grid has %d cells, want %d", n, DefaultTileCells)
	}
	eyes := func(n int) []geom.Pt3 { return make([]geom.Pt3, n) }

	cases := []struct {
		name     string
		t        *terrain.Terrain
		req      Request
		wantMode string
		wantTile bool
	}{
		{"small grid defaults to monolithic", grid,
			Request{}, "monolithic", false},
		{"grid over threshold tiles", grid,
			Request{TileCells: 32}, "tiled", true},
		{"grid exactly at threshold tiles", grid,
			Request{TileCells: 64}, "tiled", true},
		{"grid under threshold stays monolithic", grid,
			Request{TileCells: 65}, "monolithic", false},
		{"negative threshold disables tiling", grid,
			Request{TileCells: -1}, "monolithic", false},
		{"TIN never tiles automatically", tin,
			Request{TileCells: 1}, "monolithic", false},
		// The monolithic adapters' route: a negative threshold keeps even a
		// grid at the default threshold off the tiled pipeline.
		{"forced monolithic beats the threshold", defaultSized,
			Request{TileCells: -1}, "monolithic", false},
		{"threshold 1 tiles a small grid", grid,
			Request{TileCells: 1}, "tiled", true},
		{"alternate-diagonal grid never tiles automatically", alt,
			Request{TileCells: 1}, "monolithic", false},
		{"one eye, monolithic route", grid,
			Request{Perspective: true, Eyes: eyes(1)}, "batched", false},
		{"one eye, tiled route", grid,
			Request{Perspective: true, Eyes: eyes(1), TileCells: 32}, "batched-tiled", true},
		{"many eyes, monolithic route", grid,
			Request{Perspective: true, Eyes: eyes(9), TileCells: -1}, "batched", false},
		{"many eyes, tiled route", grid,
			Request{Perspective: true, Eyes: eyes(9), TileCells: 32}, "batched-tiled", true},
		{"empty batch plans without frames", grid,
			Request{Perspective: true}, "batched", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := New(tc.t, Config{}).Plan(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Mode() != tc.wantMode || plan.Tiled != tc.wantTile {
				t.Fatalf("plan = %s tiled=%v, want %s tiled=%v (%s)",
					plan.Mode(), plan.Tiled, tc.wantMode, tc.wantTile, plan.Explain())
			}
			if plan.Frames != len(tc.req.Eyes) {
				t.Fatalf("frames = %d, want %d", plan.Frames, len(tc.req.Eyes))
			}
			if plan.Tiled && (plan.Bands < 1 || plan.TileCols < 1) {
				t.Fatalf("tiled plan missing tile grid: %+v", plan)
			}
			if plan.Explain() == "" || !strings.Contains(plan.Explain(), plan.Mode()) {
				t.Fatalf("Explain() = %q does not name the mode", plan.Explain())
			}
		})
	}
}

// TestEnsureTilesRejectsNonGrid: terrains without the canonical grid
// triangulation have no tile partition, so the tiled pipeline refuses them
// up front (TiledSolver's constructor surfaces this error).
func TestEnsureTilesRejectsNonGrid(t *testing.T) {
	for name, tt := range map[string]*terrain.Terrain{"TIN": testTIN(t), "alternate-diagonal grid": testAltGrid(t)} {
		t.Run(name, func(t *testing.T) {
			if err := New(tt, Config{}).EnsureTiles(); err == nil || !strings.Contains(err.Error(), "needs a grid terrain") {
				t.Fatalf("EnsureTiles err = %v, want a grid-terrain error", err)
			}
		})
	}
}

func TestPlannerWorkerSplit(t *testing.T) {
	grid := testGrid(t)
	cases := []struct {
		workers, frameWorkers, frames int
		wantConcurrent, wantPerFrame  int
	}{
		{4, 0, 8, 4, 1},  // many frames: frame-level parallelism, 1 worker each
		{8, 0, 2, 2, 4},  // few frames: leftover budget goes intra-frame
		{2, 8, 4, 4, 1},  // explicit oversubscription is honored (clamped to frames)
		{6, 2, 12, 2, 3}, // explicit frame workers split the budget
		{1, 0, 5, 1, 1},  // single worker serializes frames
	}
	for _, tc := range cases {
		c, p := SplitBudget(tc.workers, tc.frameWorkers, tc.frames)
		if c != tc.wantConcurrent || p != tc.wantPerFrame {
			t.Errorf("SplitBudget(%d, %d, %d) = (%d, %d), want (%d, %d)",
				tc.workers, tc.frameWorkers, tc.frames, c, p, tc.wantConcurrent, tc.wantPerFrame)
		}
		plan, err := New(grid, Config{}).Plan(Request{
			Workers: tc.workers, FrameWorkers: tc.frameWorkers,
			Perspective: true, Eyes: make([]geom.Pt3, tc.frames),
		})
		if err != nil {
			t.Fatal(err)
		}
		if plan.FrameWorkers != tc.wantConcurrent || plan.WorkersPerFrame != tc.wantPerFrame {
			t.Errorf("plan split (%d, %d), want (%d, %d)",
				plan.FrameWorkers, plan.WorkersPerFrame, tc.wantConcurrent, tc.wantPerFrame)
		}
	}
}

func TestFramesLowestIndexErrorWins(t *testing.T) {
	// Frames 3 and 6 fail; frame 3 slowly, frame 6 instantly. Whatever the
	// goroutine timing, the reported failure must be frame 3, and every
	// frame below it must still have run.
	eyes := make([]geom.Pt3, 8)
	for i := range eyes {
		eyes[i].X = float64(i)
	}
	for rep := 0; rep < 10; rep++ {
		var ran [8]atomic.Bool
		err := Frames(4, eyes, "frame", func(i int) error {
			ran[i].Store(true)
			switch i {
			case 3:
				time.Sleep(10 * time.Millisecond)
				return errors.New("slow failure")
			case 6:
				return errors.New("fast failure")
			}
			return nil
		})
		if err == nil {
			t.Fatal("no error reported")
		}
		if !strings.Contains(err.Error(), "frame 3 ") || !strings.Contains(err.Error(), "slow failure") {
			t.Fatalf("rep %d: error %q, want the frame-3 failure", rep, err)
		}
		for i := 0; i < 3; i++ {
			if !ran[i].Load() {
				t.Fatalf("rep %d: frame %d below the failure was skipped", rep, i)
			}
		}
	}
}

func TestFramesNoError(t *testing.T) {
	eyes := make([]geom.Pt3, 5)
	var n atomic.Int64
	if err := Frames(3, eyes, "frame", func(i int) error { n.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 5 {
		t.Fatalf("ran %d frames, want 5", n.Load())
	}
}

// TestPlanRejectsUnknownAlgorithm checks that Plan rejects an unknown
// algorithm on monolithic, tiled and paged executors before it builds a
// tile partition or prepares a depth order, and that Dispatch rejects one
// too.
func TestPlanRejectsUnknownAlgorithm(t *testing.T) {
	grid := testGrid(t)
	for _, tc := range []struct {
		name      string
		e         *Executor
		tileCells int
		mode      string
	}{
		{"monolithic", New(grid, Config{}), -1, "monolithic"},
		{"tiled", New(grid, Config{}), 1, "tiled"},
		{"paged", NewPaged(&tile.PagedGrid{Rows: 8, Cols: 8, Cell: 1, Src: newArraySource(9, 9, pagedTestHeights)}, Config{}, "why"), 0, "out-of-core"},
	} {
		req := Request{Algorithm: "zbuffer", TileCells: tc.tileCells}
		if _, err := tc.e.Plan(req); err == nil || !strings.Contains(err.Error(), `terrainhsr: unknown algorithm "zbuffer"`) {
			t.Fatalf("%s: err = %v, want unknown algorithm", tc.name, err)
		}
		if tc.e.part != nil || tc.e.tileErr != nil || tc.e.prep != nil || tc.e.prepErr != nil {
			t.Fatalf("%s: the rejected plan built a partition or prepared", tc.name)
		}
		// The same request with a known algorithm takes the route the
		// rejection cut short.
		req.Algorithm = AlgoSequential
		if plan, err := tc.e.Plan(req); err != nil || plan.Mode() != tc.mode {
			t.Fatalf("%s: plan %v, err %v; want mode %s", tc.name, plan, err, tc.mode)
		}
	}
	prep, err := hsr.Prepare(grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dispatch(prep, "zbuffer", 1); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("Dispatch err = %v, want unknown algorithm", err)
	}
}

func TestExecutorRunStreamSingleViewOnly(t *testing.T) {
	e := New(testGrid(t), Config{})
	req := Request{Perspective: true, Eyes: make([]geom.Pt3, 3)}
	plan, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunStream(plan, req, func(hsr.VisiblePiece) error { return nil }); err == nil {
		t.Fatal("multi-frame stream accepted")
	}
}

func TestPlanRejectsNonFinite(t *testing.T) {
	resident := New(testGrid(t), Config{})
	paged := NewPaged(&tile.PagedGrid{Rows: 8, Cols: 8, Cell: 1, Src: newArraySource(9, 9, pagedTestHeights)}, Config{}, "why")
	eye := geom.Pt3{X: -5, Y: 4, Z: 6}
	bad := func(c int, v float64) []geom.Pt3 {
		xyz := [3]float64{eye.X, eye.Y, eye.Z}
		xyz[c] = v
		return []geom.Pt3{eye, {X: xyz[0], Y: xyz[1], Z: xyz[2]}}
	}
	for _, tc := range []struct {
		req  Request
		want string
	}{
		{Request{Perspective: true, Eyes: bad(0, math.NaN())}, "eye 1: coordinate x is not finite"},
		{Request{Perspective: true, Eyes: bad(1, math.Inf(1))}, "eye 1: coordinate y is not finite"},
		{Request{Perspective: true, Eyes: bad(2, math.Inf(-1))}, "eye 1: coordinate z is not finite"},
		{Request{Perspective: true, Eyes: []geom.Pt3{eye}, MinDepth: math.NaN()}, "MinDepth NaN is not finite"},
	} {
		for name, e := range map[string]*Executor{"resident": resident, "paged": paged} {
			if _, err := e.Plan(tc.req); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want %q", name, err, tc.want)
			}
		}
	}
	// A session frame is checked too, even though its plan is reused.
	req := Request{Perspective: true, Eyes: []geom.Pt3{eye}}
	plan, err := resident.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := resident.NewSessionState(plan, req)
	if err != nil {
		t.Fatal(err)
	}
	req.Eyes = bad(2, math.NaN())[1:]
	if _, err := resident.RunSessionFrame(plan, req, st, func(hsr.VisiblePiece) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "eye 0: coordinate z is not finite") {
		t.Fatalf("session frame err = %v", err)
	}
}
