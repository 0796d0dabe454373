package engine

import (
	"fmt"
	"slices"
	"strings"

	"terrainhsr/internal/hsr"
	"terrainhsr/internal/tile"
)

// Algorithm names understood by Dispatch; they mirror the public
// terrainhsr.Algorithm constants.
const (
	AlgoParallel        = "parallel"
	AlgoParallelHulls   = "parallel-hulls"
	AlgoParallelCopying = "parallel-copying"
	AlgoSequential      = "sequential"
	AlgoSequentialTree  = "sequential-tree"
	AlgoBruteForce      = "brute-force"
	AlgoAllPairs        = "all-pairs"
)

// algorithms lists every name Dispatch runs, in the order Algorithms
// reports them.
var algorithms = []string{
	AlgoParallel, AlgoParallelHulls, AlgoParallelCopying,
	AlgoSequential, AlgoSequentialTree, AlgoBruteForce, AlgoAllPairs,
}

// Algorithms lists the algorithm names Dispatch runs.
func Algorithms() []string { return slices.Clone(algorithms) }

// checkAlgorithm rejects a name Dispatch does not run, listing the ones it
// does.
func checkAlgorithm(algo string) error {
	if slices.Contains(algorithms, algo) {
		return nil
	}
	return fmt.Errorf("terrainhsr: unknown algorithm %q (known: %s)", algo, strings.Join(algorithms, ", "))
}

// Dispatch is the single algorithm dispatch every solve in the module routes
// through, so a new algorithm is added in exactly one place. Every
// algorithm runs on the prepared depth order prep; the tree kernels draw
// their arenas from package hsr's own pool.
func Dispatch(prep *hsr.Prepared, algo string, workers int) (*hsr.Result, error) {
	switch algo {
	case AlgoParallel:
		return prep.ParallelOS(hsr.OSOptions{Workers: workers})
	case AlgoParallelHulls:
		return prep.ParallelOS(hsr.OSOptions{Workers: workers, WithHulls: true})
	case AlgoParallelCopying:
		return prep.ParallelSimple(workers)
	case AlgoSequential:
		return prep.Sequential()
	case AlgoSequentialTree:
		return prep.SequentialTree(false)
	case AlgoBruteForce:
		return prep.BruteForce()
	case AlgoAllPairs:
		return prep.AllPairs()
	}
	return nil, checkAlgorithm(algo) // every name it accepts returned above
}

// TileSolver is the SolveFunc of every tiled plan: it runs kernel in each
// tile through Dispatch, on the depth order the tile's set-up arena
// prepared.
func TileSolver(kernel string) tile.SolveFunc {
	return func(prep *hsr.Prepared, workers int) (*hsr.Result, error) {
		return Dispatch(prep, kernel, workers)
	}
}
