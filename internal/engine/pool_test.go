package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"terrainhsr/internal/workload"
)

// TestExecutorsShareTreePool runs two executors over different terrains
// concurrently, each with both tree kernels in both hull modes and with the
// monolithic and the tiled pipeline. Every solve draws its tree arenas from
// package hsr's one pool, so Ops built for one terrain's solves serve the
// other's; each answer must equal its executor's serial solve byte for
// byte.
func TestExecutorsShareTreePool(t *testing.T) {
	type job struct {
		name string
		e    *Executor
		plan *Plan
		req  Request
		want []Outcome
	}
	var jobs []job
	for _, tc := range []struct {
		kind  workload.Kind
		cells int
	}{{workload.Massive, 12}, {workload.Fractal, 14}} {
		e := New(frameTerrain(t, tc.kind, tc.cells), Config{})
		for _, kernel := range []string{AlgoParallel, AlgoParallelHulls, AlgoSequentialTree} {
			for _, tileCells := range []int{-1, 1} {
				req := Request{Workers: 2, Perspective: true, Eyes: frameEyes(tc.cells, 2), TileCells: tileCells}
				plan, err := e.Plan(req)
				if err != nil {
					t.Fatal(err)
				}
				plan.Kernel = kernel
				want, err := e.Run(plan, req)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s %dx%d kernel=%s tiled=%v", tc.kind, tc.cells, tc.cells, kernel, plan.Tiled)
				jobs = append(jobs, job{name, e, plan, req, want})
			}
		}
	}
	const rounds = 2
	errs := make(chan error, rounds*len(jobs)) // one send at most per run
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				outs, err := j.e.Run(j.plan, j.req)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", j.name, err)
					return
				}
				for i, oc := range outs {
					got, w := oc.Res, j.want[i].Res
					switch {
					case !slices.Equal(got.Pieces, w.Pieces):
						errs <- fmt.Errorf("%s frame %d: %d pieces differ from the serial solve's %d", j.name, i, len(got.Pieces), len(w.Pieces))
						return
					case got.Crossings != w.Crossings || got.Counters != w.Counters:
						errs <- fmt.Errorf("%s frame %d: crossings %d counters %+v, serial %d %+v", j.name, i, got.Crossings, got.Counters, w.Crossings, w.Counters)
						return
					}
				}
			}(j)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
