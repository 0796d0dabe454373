package engine

import (
	"fmt"
	"sync"

	"terrainhsr/internal/tile"
)

// This file adds the level-of-detail dimension to planning. A LevelSet
// holds one Executor per pyramid level (finest first); planning a request
// picks the coarsest level whose resolution still fits the caller's error
// budget — Erickson's finite-resolution argument: when the output device
// (or the consumer's tolerance) cannot distinguish features below some
// size, solving finer than that size buys nothing — and the pyramid's
// conservative construction (package lod) guarantees the coarse answer
// never falsely reports visibility. Every pick is recorded as a plan
// reason, so Plan.Explain answers "which level did my query solve, and
// why" the same way it answers "which engine".
//
// Level executors are built lazily through a caller-supplied constructor:
// picking needs only the cell sizes, so a store-backed terrain pays the
// tile I/O of a level the first time a query actually routes to it.

// levelSlot lazily holds one level's executor. Construction errors are not
// latched: a level whose build failed (transient store I/O, say) is
// retried on the next request.
type levelSlot struct {
	mu   sync.Mutex
	exec *Executor
}

// LevelDesc describes one pyramid level to a LevelSet: its sample spacing
// and its grid shape in cells, which is what the residency decision needs.
type LevelDesc struct {
	CellSize   float64
	Rows, Cols int
}

// EstimateTerrainBytes estimates the resident bytes of solving a rows x cols
// cell grid in core: the assembled height grid plus the terrain it builds
// (vertices, triangles, edges). It is the quantity compared against the
// residency budget when routing a level in- or out-of-core.
func EstimateTerrainBytes(rows, cols int) int64 {
	samples := int64(rows+1) * int64(cols+1)
	cells := int64(rows) * int64(cols)
	edges := 3*cells + int64(rows) + int64(cols)
	return 8*samples + // height grid
		24*samples + // vertices (three float64)
		12*2*cells + // triangles (three int32)
		16*edges // edges (four int32)
}

// OutOfCoreSpec picks the tile sizing for a paged solve of a rows x cols
// cell grid under a residency budget. The automatic Spec aims at a handful
// of bands, which is right in core but wrong paged: a band's working set —
// the resident height pages, the read-ahead band, and the per-band vertex
// tables — scales with TileRows x cols, so a 16k grid cut four ways would
// drag half a gigabyte into residency per band. Bands are instead sized so
// that working set stays a small fraction of the budget, and never larger
// than the automatic size (so at scales where an in-core solve is possible
// the partitions — and therefore the solved pieces, byte for byte —
// coincide). Column tiling keeps the automatic size: columns bound cull
// granularity, not residency — under a close perspective eye the halo of
// a near band spans most of the band's width whatever the column cut, so
// narrower columns multiply extraction work without shrinking the solve.
func OutOfCoreSpec(rows, cols int, budget int64) tile.Spec {
	if budget <= 0 {
		return tile.Spec{}
	}
	// ~32 band-rows of float64 heights per budget unit keeps pages,
	// read-ahead and vertex tables comfortably inside the cap.
	tr := int(budget / (int64(cols+1) * 8 * 32))
	const minBand = 16
	if tr < minBand {
		tr = minBand
	}
	if a := tile.AutoSize(rows); tr > a {
		tr = a
	}
	return tile.Spec{TileRows: tr}
}

// LevelSet is the planning view of a terrain's LOD pyramid: the shape and
// cell size of every level, finest (level 0) first, and lazily built
// executors. Levels whose estimated resident bytes exceed the residency
// budget are flagged out-of-core, and their constructor is asked for a
// paged executor.
type LevelSet struct {
	descs  []LevelDesc
	ooc    []bool
	budget int64
	build  func(level int, outOfCore bool) (*Executor, error)
	slots  []levelSlot
}

// NewLevelSet builds a level set from the per-level descriptions (cell sizes
// strictly increasing, finest first — the pyramid's invariant) and an
// executor constructor invoked at most once per level, on first use. The
// constructor's outOfCore argument is the residency decision: true when
// residencyBudget > 0 and EstimateTerrainBytes(level shape) exceeds it, in
// which case the constructor must return a paged executor (NewPaged); a
// budget of 0 keeps every level in core.
func NewLevelSet(levels []LevelDesc, residencyBudget int64, build func(level int, outOfCore bool) (*Executor, error)) (*LevelSet, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("terrainhsr: level set needs at least the finest level")
	}
	if build == nil {
		return nil, fmt.Errorf("terrainhsr: level set needs an executor constructor")
	}
	if residencyBudget < 0 {
		return nil, fmt.Errorf("terrainhsr: negative residency budget %d", residencyBudget)
	}
	ooc := make([]bool, len(levels))
	for i, d := range levels {
		if d.CellSize <= 0 {
			return nil, fmt.Errorf("terrainhsr: level %d cell size %v", i, d.CellSize)
		}
		if i > 0 && d.CellSize <= levels[i-1].CellSize {
			return nil, fmt.Errorf("terrainhsr: level %d cell size %v does not coarsen level %d (%v)",
				i, d.CellSize, i-1, levels[i-1].CellSize)
		}
		if d.Rows < 1 || d.Cols < 1 {
			return nil, fmt.Errorf("terrainhsr: level %d is %dx%d cells", i, d.Rows, d.Cols)
		}
		ooc[i] = residencyBudget > 0 && EstimateTerrainBytes(d.Rows, d.Cols) > residencyBudget
	}
	return &LevelSet{
		descs:  append([]LevelDesc(nil), levels...),
		ooc:    ooc,
		budget: residencyBudget,
		build:  build,
		slots:  make([]levelSlot, len(levels)),
	}, nil
}

// SingleLevel wraps one prebuilt executor as a one-level set: a terrain
// without a pyramid. It takes no LevelDesc, so irregular TINs qualify; its
// level reports cell size 0, every error budget picks it, and its plans
// carry no level stamp, so they explain exactly as the executor's own do.
func SingleLevel(exec *Executor) *LevelSet {
	ls := &LevelSet{descs: make([]LevelDesc, 1), ooc: make([]bool, 1), slots: make([]levelSlot, 1)}
	ls.slots[0].exec = exec
	return ls
}

// NumLevels returns the level count (at least 1).
func (ls *LevelSet) NumLevels() int { return len(ls.descs) }

// CellSize returns level l's sample spacing (0 = finest).
func (ls *LevelSet) CellSize(l int) float64 { return ls.descs[l].CellSize }

// OutOfCore reports whether level l routes through the paged pipeline.
func (ls *LevelSet) OutOfCore(l int) bool { return ls.ooc[l] }

// Executor returns level l's executor, constructing it on first use. A
// failed construction is retried on the next call rather than cached.
func (ls *LevelSet) Executor(l int) (*Executor, error) {
	if l < 0 || l >= len(ls.slots) {
		return nil, fmt.Errorf("terrainhsr: level %d of %d", l, len(ls.slots))
	}
	s := &ls.slots[l]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.exec == nil {
		exec, err := ls.build(l, ls.ooc[l])
		if err != nil {
			return nil, err
		}
		if exec == nil {
			return nil, fmt.Errorf("terrainhsr: level %d constructor returned no executor", l)
		}
		s.exec = exec
	}
	return s.exec, nil
}

// Pick selects the level a given error budget routes to: the coarsest
// level whose cell size is at most the budget, or the finest level when
// the budget is unset (<= 0) or finer than every level. The reason string
// records the decision in Plan.Explain's vocabulary. Pick does no I/O —
// it never constructs an executor.
func (ls *LevelSet) Pick(budget float64) (level int, reason string) {
	if budget <= 0 {
		return 0, "no error budget: finest level"
	}
	pick := -1
	for i, d := range ls.descs {
		if d.CellSize <= budget {
			pick = i
		}
	}
	if pick < 0 {
		return 0, fmt.Sprintf("error budget %g finer than the finest cell %g: finest level",
			budget, ls.descs[0].CellSize)
	}
	if pick == len(ls.descs)-1 {
		return pick, fmt.Sprintf("error budget %g admits the coarsest level (cell %g)",
			budget, ls.descs[pick].CellSize)
	}
	return pick, fmt.Sprintf("error budget %g admits cell %g but not %g",
		budget, ls.descs[pick].CellSize, ls.descs[pick+1].CellSize)
}

// PlanLevel picks the level for the request's error budget (forced < 0)
// or takes the forced level — the progressive server's coarse-then-exact
// passes pin their levels explicitly — builds that level's executor if
// needed, and plans the request on it; the returned executor is the one the
// plan must run on. The plan carries the level decision (and its reason)
// for Explain, except on a SingleLevel set, which has no pyramid to explain.
func (ls *LevelSet) PlanLevel(req Request, forced int) (*Plan, *Executor, error) {
	var level int
	var reason string
	if forced < 0 {
		level, reason = ls.Pick(req.ErrorBudget)
	} else {
		if forced >= len(ls.descs) {
			return nil, nil, fmt.Errorf("terrainhsr: level %d of %d", forced, len(ls.descs))
		}
		level, reason = forced, fmt.Sprintf("level %d forced by caller", forced)
	}
	exec, err := ls.Executor(level)
	if err != nil {
		return nil, nil, err
	}
	p, err := exec.Plan(req)
	if err != nil {
		return nil, nil, err
	}
	if ls.build == nil { // SingleLevel: no pyramid to stamp
		return p, exec, nil
	}
	p.Level = level
	p.LevelCount = len(ls.descs)
	p.LevelCellSize = ls.descs[level].CellSize
	p.addReason("%s", reason)
	return p, exec, nil
}
