package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/parallel"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/tile"
)

// Config fixes the per-terrain execution state an Executor carries.
type Config struct {
	// TileSpec selects the tile sizing used by tiled plans (zero values pick
	// the automatic size).
	TileSpec tile.Spec
	// NoCull disables the per-tile occlusion cull of tiled plans. Culling
	// never changes results; the switch exists for tests and measurements.
	NoCull bool
}

// Executor runs any Plan for one terrain under one worker budget. It lazily
// builds — and then shares across every solve, frame and tile — the
// expensive per-terrain state: the canonical-view depth order and the tile
// partition. The profile-tree arenas are not per-terrain: the kernels draw
// them from package hsr's one pool. An Executor is safe for concurrent use.
type Executor struct {
	t     *terrain.Terrain
	paged *tile.PagedGrid // out-of-core backing; exactly one of t/paged is set
	cfg   Config

	// pagedReason explains why the terrain is paged; every plan carries it.
	pagedReason string

	prepOnce sync.Once
	prep     *hsr.Prepared
	prepErr  error

	tileOnce sync.Once
	part     *tile.Partition
	tileErr  error

	boundsOnce sync.Once
	bounds     []tile.WorldBox
	boundsErr  error
}

// New builds an executor for a terrain.
func New(t *terrain.Terrain, cfg Config) *Executor {
	return &Executor{t: t, cfg: cfg}
}

// NewPaged builds an out-of-core executor over a paged grid whose View field
// is left for the executor to set per frame. Every plan it makes is paged
// and tiled; reason — typically "estimated N MB resident exceeds budget
// M MB" — explains the routing in Plan.Explain.
func NewPaged(g *tile.PagedGrid, cfg Config, reason string) *Executor {
	return &Executor{paged: g, cfg: cfg, pagedReason: reason}
}

// EnsurePrepared computes (once) the canonical-view depth order, surfacing
// preparation errors eagerly for callers that want them at construction.
func (e *Executor) EnsurePrepared() error {
	e.prepOnce.Do(func() {
		if e.paged != nil {
			e.prepErr = fmt.Errorf("terrainhsr: out-of-core executor has no resident terrain to prepare")
			return
		}
		e.prep, e.prepErr = hsr.Prepare(e.t)
	})
	return e.prepErr
}

// EnsureTiles builds (once) the tile partition, surfacing tiling errors —
// such as terrains without grid structure — eagerly. Plans report its
// shape and tiled solves run on it, so the explained tile grid is by
// construction the one that runs.
func (e *Executor) EnsureTiles() error {
	e.tileOnce.Do(func() {
		switch {
		case e.paged != nil:
			e.part, e.tileErr = tile.NewPartition(e.paged.Rows, e.paged.Cols, e.cfg.TileSpec)
		case e.t == nil || !e.t.IsGrid():
			e.tileErr = fmt.Errorf("terrainhsr: tiled solving needs a grid terrain (NewGridTerrain or Generate)")
		default:
			e.part, e.tileErr = tile.NewPartition(e.t.GridRows, e.t.GridCols, e.cfg.TileSpec)
		}
	})
	return e.tileErr
}

// TileGrid returns the tile-grid dimensions (front-to-back bands, tile
// columns per band); it requires a successful EnsureTiles.
func (e *Executor) TileGrid() (bands, cols int) { return e.part.NumBands, e.part.NumCols }

// Outcome is one frame's answer.
type Outcome struct {
	// Res is the frame's visible scene.
	Res *hsr.Result
	// Tile is the tiling effort report; meaningful only for tiled plans.
	Tile tile.Stats
}

// Run executes a plan and materializes every frame's result. For
// perspective plans the results are in eye order; the canonical view yields
// exactly one outcome. On error the failure with the lowest frame index is
// reported deterministically (see Frames).
func (e *Executor) Run(plan *Plan, req Request) ([]Outcome, error) {
	if !plan.Perspective {
		oc, err := e.solveView(plan, req, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		return []Outcome{oc}, nil
	}
	if plan.Frames == 0 {
		return nil, nil
	}
	outs := make([]Outcome, plan.Frames)
	label := "batch frame"
	switch {
	case plan.Paged:
		label = "out-of-core frame"
	case plan.Tiled:
		label = "tiled frame"
	}
	if err := Frames(plan.FrameWorkers, req.Eyes, label, func(i int) error {
		oc, err := e.solveView(plan, req, frameView(req, i), nil, nil)
		if err != nil {
			return err
		}
		outs[i] = oc
		return nil
	}); err != nil {
		return nil, err
	}
	return outs, nil
}

// frameView is the perspective transform of frame i of a request.
func frameView(req Request, i int) *geom.PerspectiveTransform {
	return &geom.PerspectiveTransform{Eye: req.Eyes[i], MinDepth: req.MinDepth}
}

// lattice returns the tile lattice of one view (nil = canonical): the paged
// grid seen through the view, which transforms vertices as they page in, or
// the resident terrain mapped through it (vertex-only; the triangle and edge
// tables are shared).
func (e *Executor) lattice(view *geom.PerspectiveTransform) (tile.Lattice, error) {
	if e.paged != nil {
		g := *e.paged
		g.View = view
		return &g, nil
	}
	if view == nil {
		return tile.Resident{T: e.t}, nil
	}
	tt, err := e.t.TransformShared(view.Apply)
	if err != nil {
		return nil, err
	}
	return tile.Resident{T: tt}, nil
}

// solveView runs one view — canonical (nil view) or a perspective frame —
// through the plan's pipeline. A non-nil emit streams the pieces instead of
// materializing them (tiled plans flush each depth band as it completes);
// a non-nil co warm-starts a tiled solve from a session's previous frame.
func (e *Executor) solveView(plan *Plan, req Request, view *geom.PerspectiveTransform, emit func(hsr.VisiblePiece) error, co *tile.Coherence) (Outcome, error) {
	if plan.Tiled {
		if err := e.EnsureTiles(); err != nil {
			return Outcome{}, err
		}
		lat, err := e.lattice(view)
		if err != nil {
			return Outcome{}, err
		}
		res, st, err := tile.Solve(lat, e.part, TileSolver(plan.Kernel), tile.Options{
			Workers: plan.WorkersPerFrame, NoCull: e.cfg.NoCull, Emit: emit, Coherence: co, Trace: req.Trace,
		})
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Res: res, Tile: st}, nil
	}
	var prep *hsr.Prepared
	if view == nil {
		if err := e.EnsurePrepared(); err != nil {
			return Outcome{}, err
		}
		prep = e.prep
	} else {
		// The arena lives until the solve returns; no result points into it.
		a := framePool.Get().(*frameArena)
		defer framePool.Put(a)
		if err := e.t.TransformSharedInto(&a.view, view.Apply); err != nil {
			return Outcome{}, err
		}
		var err error
		if prep, err = a.prep.Prepare(&a.view); err != nil {
			return Outcome{}, err
		}
	}
	res, err := Dispatch(prep, plan.Kernel, plan.WorkersPerFrame)
	if err != nil {
		return Outcome{}, err
	}
	if emit != nil {
		for _, p := range res.Pieces {
			if err := emit(p); err != nil {
				return Outcome{}, err
			}
		}
		res.Pieces = nil
	}
	return Outcome{Res: res}, nil
}

// frameArena is the set-up arena of one monolithic perspective frame: the
// terrain mapped through the frame's view, whose vertex table it owns (the
// triangle and edge tables are the executor's, shared), and the depth order
// prepared from it.
type frameArena struct {
	view terrain.Terrain
	prep hsr.PrepareArena
}

// framePool holds the set-up arenas of monolithic perspective frames. An
// arena keeps the capacity of the largest frame it has prepared, so a
// steady stream of frames transforms and prepares without allocating; the
// pool lets idle arenas go at garbage collection. The canonical view instead
// shares the executor's immutable preparation.
var framePool = sync.Pool{New: func() any { return new(frameArena) }}

// Sink consumes streamed visible pieces; returning an error aborts the
// solve.
type Sink func(p hsr.VisiblePiece) error

// StreamStats summarizes a streaming run.
type StreamStats struct {
	// N is the input size (terrain edges) and K the number of pieces
	// delivered to the sink.
	N, K int
	// Crossings counts the image vertex events discovered.
	Crossings int64
	// Tiled reports whether the plan tiled, and Tile its effort report.
	Tiled bool
	Tile  tile.Stats
}

// RunStream executes a single-view plan, delivering every visible piece to
// the sink instead of materializing a result. Monolithic plans stream the
// solver's pieces in canonical (Edge, X1, Z1) order; tiled plans flush each
// front-to-back depth band as soon as it completes, canonically ordered
// within the band, so the full visible scene is never held in memory.
// Collecting a stream and sorting it canonically yields exactly the pieces
// a materializing Run produces.
func (e *Executor) RunStream(plan *Plan, req Request, sink Sink) (*StreamStats, error) {
	if plan.Perspective && plan.Frames != 1 {
		return nil, fmt.Errorf("terrainhsr: streaming solves a single view, got %d frames", plan.Frames)
	}
	k := 0
	emit := func(p hsr.VisiblePiece) error {
		if err := sink(p); err != nil {
			return err
		}
		k++
		return nil
	}
	var view *geom.PerspectiveTransform
	if plan.Perspective {
		view = frameView(req, 0)
	}
	oc, err := e.solveView(plan, req, view, emit, nil)
	if err != nil {
		return nil, err
	}
	return &StreamStats{
		N: oc.Res.N, K: k, Crossings: oc.Res.Crossings,
		Tiled: plan.Tiled, Tile: oc.Tile,
	}, nil
}

// Frames runs fn for every frame index on up to workers goroutines, with
// deterministic error propagation: the failure with the lowest frame index
// always wins. Frames above the lowest failure observed so far are skipped;
// frames below it keep running, since one of them may fail lower still. The
// reported error is tagged with the frame index, its eye, and the
// caller-supplied label ("batch frame", "query", ...).
func Frames(workers int, eyes []geom.Pt3, label string, fn func(i int) error) error {
	n := len(eyes)
	errs := make([]error, n)
	var minFailed atomic.Int64
	minFailed.Store(int64(n))
	parallel.ForDynamic(workers, n, 1, func(_, i int) {
		if int64(i) > minFailed.Load() {
			return
		}
		if err := fn(i); err != nil {
			errs[i] = err
			for {
				cur := minFailed.Load()
				if int64(i) >= cur || minFailed.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		}
	})
	if m := minFailed.Load(); m < int64(n) {
		i := int(m)
		return fmt.Errorf("terrainhsr: %s %d (eye %v,%v,%v): %w",
			label, i, eyes[i].X, eyes[i].Y, eyes[i].Z, errs[i])
	}
	return nil
}
