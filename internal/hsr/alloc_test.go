package hsr

import (
	"testing"

	"terrainhsr/internal/workload"
)

// TestPooledSolveAllocBudget is the kernel's allocation budget: a pooled
// ParallelOS solve of a 24×24 fractal (n = 1776 edges, k = 112). Phase 2's
// crossing queries and splices run in recycled node slabs and query
// scratch, so nearly all that remains is Phase 1's intermediate profiles
// (about two allocations per edge). The parent of this budget allocated
// 22,644 times per solve at one worker and 22,820 at two, mostly per-query
// relation and run slices; now it is about 3,970 and 4,140.
func TestPooledSolveAllocBudget(t *testing.T) {
	const budget = 4400
	tr := genT(t, workload.Fractal, 24, 24, 1)
	prep := prepT(t, tr)
	for _, workers := range []int{1, 2} {
		opt := OSOptions{Workers: workers}
		if _, err := prep.ParallelOS(opt); err != nil { // fill the pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := prep.ParallelOS(opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("workers=%d: pooled solve allocated %.0f times, budget %d", workers, allocs, budget)
		}
	}
}
