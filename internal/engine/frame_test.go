package engine

import (
	"fmt"
	"slices"
	"testing"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/workload"
)

// frameTerrain generates a workload terrain for the frame tests and
// benchmarks.
func frameTerrain(tb testing.TB, kind workload.Kind, cells int) *terrain.Terrain {
	tb.Helper()
	tt, err := workload.Generate(workload.Params{Kind: kind, Rows: cells, Cols: cells, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return tt
}

// frameEyes is a row of n perspective eyes in front of a cells x cells
// terrain, spread across its width like viewshed-warm's observer grid.
func frameEyes(cells, n int) []geom.Pt3 {
	eyes := make([]geom.Pt3, n)
	for i := range eyes {
		eyes[i] = geom.Pt3{X: -4 - 3*float64(i%2), Y: float64(cells) * float64(i+1) / float64(n+1), Z: 14}
	}
	return eyes
}

// TestFrameSetupConcurrentMatchesPrepare runs monolithic perspective frames
// concurrently, each preparing into a pooled frame arena, twice so the
// second batch reuses arenas the first one grew, and checks every frame
// against a fresh hsr.Prepare of the same view: same pieces, crossings and
// counters.
func TestFrameSetupConcurrentMatchesPrepare(t *testing.T) {
	const cells = 16
	tt := frameTerrain(t, workload.Massive, cells)
	eyes := frameEyes(cells, 8)
	e := New(tt, Config{})
	for _, algo := range []string{"", AlgoParallelHulls} {
		want := make([]*hsr.Result, len(eyes))
		for i, eye := range eyes {
			view := &geom.PerspectiveTransform{Eye: eye}
			vt, err := tt.TransformShared(view.Apply)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := hsr.Prepare(vt)
			if err != nil {
				t.Fatal(err)
			}
			kernel := algo
			if kernel == "" {
				kernel = AlgoSequentialTree
			}
			if want[i], err = Dispatch(prep, kernel, 2); err != nil {
				t.Fatal(err)
			}
		}
		req := Request{Algorithm: algo, Workers: 8, FrameWorkers: 4, Perspective: true, Eyes: eyes, TileCells: -1}
		plan, err := e.Plan(req)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Tiled || plan.FrameWorkers != 4 {
			t.Fatalf("plan %s: want monolithic frames, 4 concurrent", plan.Explain())
		}
		for round := 0; round < 2; round++ {
			outs, err := e.Run(plan, req)
			if err != nil {
				t.Fatal(err)
			}
			for i, oc := range outs {
				what := fmt.Sprintf("%s round %d frame %d", plan.Kernel, round, i)
				got, w := oc.Res, want[i]
				if !slices.Equal(got.Pieces, w.Pieces) {
					t.Fatalf("%s: %d pieces differ from the freshly prepared solve's %d", what, len(got.Pieces), len(w.Pieces))
				}
				if got.Crossings != w.Crossings || got.Counters != w.Counters {
					t.Fatalf("%s: crossings %d counters %+v, freshly prepared %d %+v", what, got.Crossings, got.Counters, w.Crossings, w.Counters)
				}
			}
		}
	}
}

// TestFrameSetupAllocationFree pins that a warm frame arena sets up a
// perspective frame without allocating: the transformed vertex table, the
// depth order, its working memory and the segment table all reuse the
// arena's storage.
func TestFrameSetupAllocationFree(t *testing.T) {
	tt := frameTerrain(t, workload.Massive, 24)
	view := &geom.PerspectiveTransform{Eye: frameEyes(24, 1)[0]}
	a := framePool.Get().(*frameArena)
	defer framePool.Put(a)
	setUp := func() {
		if err := tt.TransformSharedInto(&a.view, view.Apply); err != nil {
			t.Fatal(err)
		}
		if _, err := a.prep.Prepare(&a.view); err != nil {
			t.Fatal(err)
		}
	}
	setUp() // grow the buffers
	if n := testing.AllocsPerRun(20, setUp); n != 0 {
		t.Fatalf("warm frame set-up allocates %v times, want 0", n)
	}
}

// BenchmarkFrameSolve times one monolithic perspective frame the way a
// server's cache fill solves it (two workers, the frame arena, the
// executor's tree-arena pool), once with the paper's kernel and once with
// sequential-tree, the kernel a parallel request's plan runs. Both emit the
// same bytes (TestAllAlgorithmsAgree).
func BenchmarkFrameSolve(b *testing.B) {
	for _, tc := range []struct {
		kind  workload.Kind
		cells int
	}{{workload.Massive, 40}, {workload.Fractal, 96}} {
		e := New(frameTerrain(b, tc.kind, tc.cells), Config{})
		req := Request{Workers: 2, Perspective: true, Eyes: frameEyes(tc.cells, 1), TileCells: -1}
		for _, kernel := range []string{AlgoParallel, AlgoSequentialTree} {
			b.Run(fmt.Sprintf("%s-%dx%d/kernel=%s", tc.kind, tc.cells, tc.cells, kernel), func(b *testing.B) {
				plan, err := e.Plan(req)
				if err != nil {
					b.Fatal(err)
				}
				plan.Kernel = kernel
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Run(plan, req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
