package engine

import (
	"fmt"
	"strings"
	"testing"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/tile"
)

// scaledGrid builds a small grid terrain with the given cell size.
func scaledGrid(t *testing.T, cell float64) *terrain.Terrain {
	t.Helper()
	tt, err := terrain.Grid{Rows: 4, Cols: 4, Dx: cell, Dy: cell,
		H: func(i, j int) float64 { return float64((i + j) % 3) }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

// testLevelSet builds a 3-level set with cell sizes 1, 2, 4, counting how
// many level executors were actually constructed.
func testLevelSet(t *testing.T) (*LevelSet, *int) {
	t.Helper()
	built := 0
	descs := []LevelDesc{{CellSize: 1, Rows: 4, Cols: 4}, {CellSize: 2, Rows: 4, Cols: 4}, {CellSize: 4, Rows: 4, Cols: 4}}
	ls, err := NewLevelSet(descs, 0, func(level int, outOfCore bool) (*Executor, error) {
		if outOfCore {
			return nil, fmt.Errorf("no residency budget set, yet level %d routed out-of-core", level)
		}
		built++
		return New(scaledGrid(t, []float64{1, 2, 4}[level]), Config{}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ls, &built
}

func TestLevelSetPick(t *testing.T) {
	ls, built := testLevelSet(t)
	cases := []struct {
		budget float64
		want   int
	}{
		{0, 0},   // unset: exact
		{-1, 0},  // negative: exact
		{0.5, 0}, // finer than the finest: best effort exact
		{1, 0},   // admits only the finest
		{1.9, 0}, // still only the finest
		{2, 1},   // admits level 1
		{3.9, 1}, // not yet level 2
		{4, 2},   // admits the coarsest
		{100, 2}, // way past the coarsest: clamps
	}
	for _, c := range cases {
		if got, _ := ls.Pick(c.budget); got != c.want {
			t.Errorf("Pick(%v) = %d, want %d", c.budget, got, c.want)
		}
	}
	if *built != 0 {
		t.Fatalf("Pick constructed %d executors; it must do no I/O", *built)
	}
}

func TestLevelSetPlan(t *testing.T) {
	ls, built := testLevelSet(t)
	plan, exec, err := ls.PlanLevel(Request{ErrorBudget: 2.5}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Level != 1 || plan.LevelCount != 3 || plan.LevelCellSize != 2 {
		t.Fatalf("plan level %d/%d cell %v, want 1/3 cell 2", plan.Level, plan.LevelCount, plan.LevelCellSize)
	}
	if want, _ := ls.Executor(1); exec != want {
		t.Fatal("returned executor is not the picked level's")
	}
	if *built != 1 {
		t.Fatalf("planning one level constructed %d executors", *built)
	}
	ex := plan.Explain()
	if !strings.Contains(ex, "level=1/3 (cell 2)") {
		t.Fatalf("Explain misses the level decision: %s", ex)
	}
	if !strings.Contains(ex, "error budget 2.5 admits cell 2 but not 4") {
		t.Fatalf("Explain misses the level reason: %s", ex)
	}

	plan, exec, err = ls.PlanLevel(Request{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	finest, _ := ls.Executor(0)
	if plan.Level != 0 || exec != finest {
		t.Fatal("unset budget must plan the finest level")
	}
	if !strings.Contains(plan.Explain(), "no error budget") {
		t.Fatalf("Explain misses the exactness reason: %s", plan.Explain())
	}

	plan, _, err = ls.PlanLevel(Request{ErrorBudget: 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Level != 1 || !strings.Contains(plan.Explain(), "level 1 forced") {
		t.Fatalf("forced level ignored: %s", plan.Explain())
	}
	if _, _, err := ls.PlanLevel(Request{}, 7); err == nil {
		t.Fatal("out-of-range forced level accepted")
	}
}

func TestLevelSetRun(t *testing.T) {
	// A level-set plan must execute on the picked level: the coarse grids
	// here have different edge counts, which the result's N exposes.
	ls, _ := testLevelSet(t)
	for budget, wantLevel := range map[float64]int{0: 0, 4: 2} {
		plan, exec, err := ls.PlanLevel(Request{ErrorBudget: budget}, -1)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := ls.Executor(wantLevel); exec != want {
			t.Fatalf("budget %v routed to the wrong executor", budget)
		}
		outs, err := exec.Run(plan, Request{ErrorBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != 1 || outs[0].Res == nil {
			t.Fatalf("budget %v produced no result", budget)
		}
	}
}

func TestLevelSetBuildErrorRetries(t *testing.T) {
	// Transient construction failures (store I/O) must not poison the
	// level: the next request retries, and success is then cached.
	calls := 0
	ls, err := NewLevelSet([]LevelDesc{{CellSize: 1, Rows: 4, Cols: 4}}, 0, func(int, bool) (*Executor, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("disk gone")
		}
		return New(scaledGrid(t, 1), Config{}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Executor(0); err == nil {
		t.Fatal("constructor error swallowed")
	}
	exec, err := ls.Executor(0)
	if err != nil || exec == nil {
		t.Fatalf("retry after a transient failure did not recover: %v", err)
	}
	again, _ := ls.Executor(0)
	if again != exec || calls != 2 {
		t.Fatalf("successful build not cached (calls=%d)", calls)
	}
}

func TestNewLevelSetRejects(t *testing.T) {
	build := func(int, bool) (*Executor, error) { return nil, nil }
	one := []LevelDesc{{CellSize: 1, Rows: 4, Cols: 4}}
	if _, err := NewLevelSet(nil, 0, build); err == nil {
		t.Error("empty level set accepted")
	}
	if _, err := NewLevelSet(one, 0, nil); err == nil {
		t.Error("nil constructor accepted")
	}
	if _, err := NewLevelSet([]LevelDesc{{CellSize: 0, Rows: 4, Cols: 4}}, 0, build); err == nil {
		t.Error("zero cell size accepted")
	}
	if _, err := NewLevelSet([]LevelDesc{{CellSize: 2, Rows: 4, Cols: 4}, {CellSize: 2, Rows: 4, Cols: 4}}, 0, build); err == nil {
		t.Error("non-increasing cell sizes accepted")
	}
	if _, err := NewLevelSet([]LevelDesc{{CellSize: 1}}, 0, build); err == nil {
		t.Error("shapeless level accepted")
	}
	if _, err := NewLevelSet(one, -1, build); err == nil {
		t.Error("negative residency budget accepted")
	}
}

func TestOutOfCoreSpec(t *testing.T) {
	if s := OutOfCoreSpec(16384, 16384, 0); s != (tile.Spec{}) {
		t.Errorf("zero budget: got %+v, want zero Spec", s)
	}
	// A 16k grid under a 512 MB budget gets 127-row bands: one band's
	// working set (pages + read-ahead + vertex tables) stays well under
	// the cap instead of the automatic 4096-row cut. Columns stay on the
	// automatic size — they bound cull granularity, not residency.
	if s := OutOfCoreSpec(16384, 16384, 512<<20); s.TileRows != 127 || s.TileCols != 0 {
		t.Errorf("16k under 512MB: got %+v, want TileRows=127 TileCols=0", s)
	}
	// At scales where an in-core solve is possible the spec never shrinks
	// bands below the automatic size, so both paths share one partition
	// and their pieces stay byte-identical.
	if s := OutOfCoreSpec(63, 63, 200_000); s.TileRows != tile.AutoSize(63) {
		t.Errorf("small grid: got TileRows=%d, want the automatic size %d", s.TileRows, tile.AutoSize(63))
	}
	if s := OutOfCoreSpec(63, 63, 1<<40); s.TileRows != tile.AutoSize(63) {
		t.Errorf("huge budget: got TileRows=%d, want the automatic size %d", s.TileRows, tile.AutoSize(63))
	}
}

// TestSingleLevel pins the plain-terrain contract of a one-level set: any
// budget or forced level 0 plans on the wrapped executor, and the plan
// explains exactly as the executor's own plan does — no level stamp, no
// pick reason.
func TestSingleLevel(t *testing.T) {
	exec := New(scaledGrid(t, 1), Config{})
	ls := SingleLevel(exec)
	if ls.NumLevels() != 1 || ls.CellSize(0) != 0 || ls.OutOfCore(0) {
		t.Fatalf("single level: %d levels, cell %v, out-of-core %v", ls.NumLevels(), ls.CellSize(0), ls.OutOfCore(0))
	}
	req := Request{Perspective: true, Eyes: make([]geom.Pt3, 1), Workers: 2}
	want, err := exec.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		budget float64
		forced int
	}{{0, -1}, {3, -1}, {0, 0}} {
		if l, _ := ls.Pick(c.budget); l != 0 {
			t.Fatalf("Pick(%v) = %d, want 0", c.budget, l)
		}
		req.ErrorBudget = c.budget
		plan, got, err := ls.PlanLevel(req, c.forced)
		if err != nil {
			t.Fatal(err)
		}
		if got != exec || plan.Explain() != want.Explain() || plan.LevelCount != 0 {
			t.Fatalf("budget %v forced %d: plan %q (levels %d), want %q on the wrapped executor",
				c.budget, c.forced, plan.Explain(), plan.LevelCount, want.Explain())
		}
	}
	if _, _, err := ls.PlanLevel(req, 1); err == nil {
		t.Fatal("level 1 of a single level accepted")
	}
}
