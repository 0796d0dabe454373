package terrainhsr

import (
	"fmt"

	"terrainhsr/internal/engine"
)

// Solver caches the view-dependent preprocessing of one terrain — the
// front-to-back depth order (the separator-tree step) — so that repeated
// solves of the same terrain (with different algorithms, worker counts or
// repeated benchmarking) skip it. The depth order depends only on the plan
// projection, which is immutable for a Terrain.
//
// A Solver is a thin adapter over the internal/engine planner and executor;
// the executor it carries shares the cached preparation and the tree-arena
// pool across Solve, SolveMany and SolveStream calls. A Solver is safe for
// concurrent use.
type Solver struct {
	t   *Terrain
	eng *engine.Executor
}

// NewSolver prepares a terrain for repeated visibility queries.
func NewSolver(t *Terrain) (*Solver, error) {
	if t == nil || t.t == nil {
		return nil, fmt.Errorf("terrainhsr: nil terrain")
	}
	eng := engine.New(t.t, engine.Config{})
	if err := eng.EnsurePrepared(); err != nil {
		return nil, err
	}
	return &Solver{t: t, eng: eng}, nil
}

// Terrain returns the terrain this solver was built for.
func (s *Solver) Terrain() *Terrain { return s.t }

// Solve computes the visible scene reusing the cached depth order.
// BruteForce and AllPairs are supported for completeness; they read the
// terrain directly and need no order.
func (s *Solver) Solve(opt Options) (*Result, error) {
	return runSingle(s.eng, singleRequest(opt, neverTile), opt.Algorithm)
}

// SolveMany solves the solver's terrain from many perspective eye points
// through the batch pipeline (see SolveBatch), sharing the solver's engine
// executor so repeated batches reuse the same arena pools.
func (s *Solver) SolveMany(eyes []Point, opt BatchOptions) ([]*Result, error) {
	return runMany(s.eng, batchRequest(opt, eyes, neverTile), opt.Algorithm)
}
