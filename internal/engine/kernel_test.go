package engine

import (
	"fmt"
	"strings"
	"testing"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/tile"
)

// TestPlanKernelChoice pins the one kernel rule of Executor.Plan: every
// plan of a parallel request runs sequential-tree, tiled at any worker
// share or monolithic, and every other request runs its named algorithm.
func TestPlanKernelChoice(t *testing.T) {
	// A 2x2 tile grid: workers 2 give each tile a share of 1, workers 4 a
	// share of 2 and workers 16 a share of 8.
	spec := Config{TileSpec: tile.Spec{TileRows: 4, TileCols: 4}}
	resident := New(testGrid(t), spec)
	src := newArraySource(9, 9, pagedTestHeights)
	paged := NewPaged(&tile.PagedGrid{Rows: 8, Cols: 8, Cell: 1, Src: src}, spec, "test grid exceeds budget")
	eye := []geom.Pt3{{X: -5, Y: 4, Z: 10}}

	plan := func(e *Executor, req Request) *Plan {
		t.Helper()
		p, err := e.Plan(req)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	check := func(what string, p *Plan, mode, kernel string) {
		t.Helper()
		if p.Mode() != mode || p.Kernel != kernel || !strings.Contains(p.Explain(), " kernel="+kernel) {
			t.Fatalf("%s: mode %s kernel %s (%s), want mode %s kernel %s", what, p.Mode(), p.Kernel, p.Explain(), mode, kernel)
		}
	}
	for _, workers := range []int{2, 4, 16} {
		what := func(route string) string { return fmt.Sprintf("%s at share %d", route, workers/2) }
		check(what("tiled"), plan(resident, Request{Workers: workers, TileCells: 1}), "tiled", AlgoSequentialTree)
		check(what("out-of-core"), plan(paged, Request{Workers: workers, Perspective: true, Eyes: eye}), "out-of-core", AlgoSequentialTree)
		req := Request{Workers: workers, TileCells: 1, Perspective: true, Eyes: eye}
		p := plan(resident, req)
		if _, err := resident.NewSessionState(p, req); err != nil {
			t.Fatal(err)
		}
		check(what("coherent"), p, "coherent", AlgoSequentialTree)
	}

	// Monolithic plans of a parallel request run sequential-tree too.
	check("monolithic", plan(resident, Request{Workers: 1}), "monolithic", AlgoSequentialTree)
	check("monolithic frame", plan(resident, Request{Workers: 1, Perspective: true, Eyes: eye}), "batched", AlgoSequentialTree)
	// Explicitly named algorithms other than parallel keep their own.
	for _, algo := range []string{AlgoParallelHulls, AlgoParallelCopying, AlgoSequential, AlgoSequentialTree} {
		check("tiled "+algo, plan(resident, Request{Algorithm: algo, Workers: 2, TileCells: 1}), "tiled", algo)
	}

	// The tile solves run the plan's kernel: sequential-tree charges no
	// envelope merge steps, the paper's kernel (here with hulls) does.
	for _, algo := range []string{AlgoParallel, AlgoParallelHulls} {
		req := Request{Algorithm: algo, Workers: 2, TileCells: 1}
		p := plan(resident, req)
		outs, err := resident.Run(p, req)
		if err != nil {
			t.Fatal(err)
		}
		if merged := outs[0].Res.Counters.MergeSteps > 0; merged != (p.Kernel == AlgoParallelHulls) {
			t.Fatalf("kernel %s: tile solves charged %d merge steps", p.Kernel, outs[0].Res.Counters.MergeSteps)
		}
	}
}
