package engine

import (
	"fmt"

	"terrainhsr/internal/hsr"
	"terrainhsr/internal/terrain"
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

// Dispatch is the single algorithm dispatch every solve in the module routes
// through, so a new algorithm is added in exactly one place. prepare
// supplies the depth order lazily: the order-free quadratic baselines never
// pay for (or fail on) it, and cached preparations are passed through
// unchanged. pool, when non-nil, supplies recycled tree arenas to the
// algorithms that use persistent trees; it never changes the computed
// pieces.
func Dispatch(tt *terrain.Terrain, prepare func() (*hsr.Prepared, error), algo string, workers int, pool *hsr.OpsPool) (*hsr.Result, error) {
	if algo == "" {
		algo = AlgoParallel
	}
	switch algo {
	case AlgoBruteForce:
		return hsr.BruteForce(tt)
	case AlgoAllPairs:
		return hsr.AllPairs(tt)
	case AlgoParallel, AlgoParallelHulls, AlgoParallelCopying, AlgoSequential, AlgoSequentialTree:
	default:
		return nil, fmt.Errorf("terrainhsr: unknown algorithm %q", algo)
	}
	prep, err := prepare()
	if err != nil {
		return nil, err
	}
	switch algo {
	case AlgoParallel:
		return prep.ParallelOS(hsr.OSOptions{Workers: workers, Pool: pool})
	case AlgoParallelHulls:
		return prep.ParallelOS(hsr.OSOptions{Workers: workers, WithHulls: true, Pool: pool})
	case AlgoParallelCopying:
		return prep.ParallelSimple(workers)
	case AlgoSequential:
		return prep.Sequential()
	default: // AlgoSequentialTree; the first switch rejected everything else.
		return prep.SequentialTreePooled(false, pool)
	}
}

// TileSolver is the SolveFunc of every tiled plan: it runs kernel in each
// tile through Dispatch, on the depth order the tile's set-up arena
// prepares, drawing tree arenas from pool.
func TileSolver(kernel string, pool *hsr.OpsPool) tile.SolveFunc {
	return func(sub *terrain.Terrain, prepare func() (*hsr.Prepared, error), workers int) (*hsr.Result, error) {
		return Dispatch(sub, prepare, kernel, workers, pool)
	}
}
