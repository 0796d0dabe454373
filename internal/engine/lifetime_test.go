package engine

import (
	"fmt"
	"slices"
	"testing"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/tile"
	"terrainhsr/internal/workload"
)

// TestTiledFrameAllocs pins what a warm in-core tiled perspective frame
// allocates through the engine, the path of every flyover frame. The
// frame's vertex table lives in a pooled frame arena, each tile's kernel
// Result and output in its set-up arena, and its owned pieces and the tile
// loop in the pooled band state, so a tile allocates nothing. What remains
// per frame is what the caller keeps (the outcome slice, the Result and its
// pieces) and the frame schedule's bookkeeping (the frame closure, its
// error slots and failure index, the view and the tile solver): 9
// allocations on go1.24, against 637 when every frame transformed the
// whole terrain into a fresh vertex table, every tile's output, Result and
// accounting were fresh, and every clip of a piece against the band front
// made its own span slice. The ceiling is that count (2% above it rounds
// down to it).
func TestTiledFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops frame arenas at random, so the count does not repeat")
	}
	const ceiling = 9
	const cells = 48
	e := New(frameTerrain(t, workload.Massive, cells), Config{})
	req := Request{Workers: 1, Perspective: true, Eyes: frameEyes(cells, 1), TileCells: 1024}
	plan, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Tiled {
		t.Fatalf("plan %s: want a tiled frame", plan.Explain())
	}
	run := func() {
		if _, err := e.Run(plan, req); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arenas and the tree pool
	if n := testing.AllocsPerRun(20, run); n > ceiling {
		t.Fatalf("warm tiled frame allocates %v times, ceiling %d", n, ceiling)
	}
}

// overwriteFramePools overwrites the pooled working memory a frame may
// have used: every frame arena it can draw gets another terrain's
// transform, depth order and sequential-tree output, and solves of another
// terrain, tiled and monolithic on two workers, rewrite the tile set-up
// arenas, band states and tree arenas.
func overwriteFramePools(t *testing.T) {
	t.Helper()
	other := frameTerrain(t, workload.Fractal, 20)
	view := &geom.PerspectiveTransform{Eye: geom.Pt3{X: -6, Y: 3, Z: 9}}
	var held []*frameArena
	for i := 0; i < 8; i++ {
		a := framePool.Get().(*frameArena)
		held = append(held, a)
		if err := other.TransformSharedInto(&a.view, view.Apply); err != nil {
			t.Fatal(err)
		}
		prep, err := a.prep.Prepare(&a.view)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prep.SequentialTree(false); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range held {
		framePool.Put(a)
	}
	e := New(other, Config{})
	for _, tileCells := range []int{-1, 1} {
		req := Request{Workers: 2, FrameWorkers: 2, Perspective: true, Eyes: frameEyes(20, 3), TileCells: tileCells}
		plan, err := e.Plan(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(plan, req); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrameResultsOutlivePools checks the output-lifetime rule end to end:
// a frame's kernel writes into pooled arenas (the frame's own, or each
// tile's), but no Result the engine returns aliases them. Monolithic and
// tiled frames of both tree kernels are solved, every pool is overwritten,
// and each frame's pieces must still equal a solve that shares nothing:
// hsr.Prepare of the transformed terrain for monolithic frames, tile.Solve
// over it for tiled ones.
func TestFrameResultsOutlivePools(t *testing.T) {
	const cells = 16
	tt := frameTerrain(t, workload.Massive, cells)
	eyes := frameEyes(cells, 4)
	e := New(tt, Config{})
	for _, kernel := range []string{AlgoSequentialTree, AlgoParallel} {
		for _, tileCells := range []int{-1, 1} {
			req := Request{Workers: 2, FrameWorkers: 2, Perspective: true, Eyes: eyes, TileCells: tileCells}
			plan, err := e.Plan(req)
			if err != nil {
				t.Fatal(err)
			}
			plan.Kernel = kernel
			want := make([]*hsr.Result, len(eyes))
			for i, eye := range eyes {
				view := &geom.PerspectiveTransform{Eye: eye}
				vt, err := tt.TransformShared(view.Apply)
				if err != nil {
					t.Fatal(err)
				}
				if plan.Tiled {
					want[i], _, err = tile.Solve(tile.Resident{T: vt}, e.part, TileSolver(kernel), tile.Options{Workers: 1})
				} else {
					var prep *hsr.Prepared
					if prep, err = hsr.Prepare(vt); err == nil {
						want[i], err = Dispatch(prep, kernel, 1)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			outs, err := e.Run(plan, req)
			if err != nil {
				t.Fatal(err)
			}
			overwriteFramePools(t)
			for i, oc := range outs {
				what := fmt.Sprintf("kernel=%s tiled=%v frame %d", kernel, plan.Tiled, i)
				if !slices.Equal(oc.Res.Pieces, want[i].Pieces) {
					t.Fatalf("%s: %d pieces differ from the unpooled solve's %d after the pools were overwritten", what, len(oc.Res.Pieces), len(want[i].Pieces))
				}
			}
		}
	}
}
