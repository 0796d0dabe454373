package engine

import (
	"fmt"
	"math"
	"strings"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/obs"
	"terrainhsr/internal/parallel"
)

// DefaultTileCells is the automatic tiled-routing threshold: grid terrains
// with at least this many cells (512x512) route through the tiled pipeline
// when a request leaves TileCells at 0.
const DefaultTileCells = 262144

// Request describes one solve as every public entry point expresses it.
type Request struct {
	// Algorithm names the solver ("" selects the default parallel
	// algorithm); Plan rejects a name Dispatch does not run.
	Algorithm string
	// Workers is the total worker budget (0 = all CPUs).
	Workers int
	// FrameWorkers bounds how many perspective frames run concurrently
	// (0 = automatic split, see SplitBudget).
	FrameWorkers int
	// Perspective marks Eyes as perspective viewpoints to solve one frame
	// each; false solves the canonical (already transformed) view once.
	Perspective bool
	// Eyes are the perspective viewpoints when Perspective is set.
	Eyes []geom.Pt3
	// MinDepth is the minimum eye-to-vertex x-distance for perspective
	// frames; <= 0 selects the transform's default.
	MinDepth float64
	// TileCells is the tiled-routing threshold in grid cells: grid terrains
	// with at least this many cells tile (0 = DefaultTileCells; negative
	// never tiles, 1 always tiles a grid). Paged executors always tile and
	// ignore it.
	TileCells int
	// ErrorBudget is the caller's resolution tolerance in world units, for
	// terrains with an LOD pyramid: the plan solves the coarsest level whose
	// cell size stays within it (see LevelSet.Pick). <= 0 demands the exact
	// finest level. Only LevelSet planning reads it; plans for terrains
	// without a pyramid ignore it silently.
	ErrorBudget float64
	// Trace, when sampled, receives per-band spans from the tiled solvers
	// the plan routes to. Nil (the unsampled case) costs nothing. Tracing
	// never affects planning or solve bytes.
	Trace *obs.Trace
}

// checkFinite rejects eyes and a MinDepth holding NaN or an infinity: no
// perspective transform exists for them, and the solvers would fail far
// from the cause or answer nonsense.
func (req Request) checkFinite() error {
	if math.IsNaN(req.MinDepth) || math.IsInf(req.MinDepth, 0) {
		return fmt.Errorf("terrainhsr: MinDepth %v is not finite", req.MinDepth)
	}
	for i, e := range req.Eyes {
		for j, v := range [...]float64{e.X, e.Y, e.Z} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("terrainhsr: eye %d: coordinate %c is not finite", i, "xyz"[j])
			}
		}
	}
	return nil
}

// Plan is the explainable outcome of planning one Request: which pipeline
// runs, with what worker split and tile shape, and why.
type Plan struct {
	// Tiled reports whether the pipeline partitions the terrain into tiles.
	Tiled bool
	// Paged reports a plan of a paged executor: the terrain is never
	// resident, and tiles page in band by band (always Tiled).
	Paged bool
	// Session reports a plan that runs the frames of a flyover session,
	// warm-started from the previous frame (see NewSessionState).
	Session bool
	// Perspective and Frames mirror the request: Frames perspective
	// viewpoints (0 with Perspective set is an empty batch), or the
	// canonical view when Perspective is false.
	Perspective bool
	// Frames is the number of perspective frames to solve.
	Frames int
	// TotalWorkers is the resolved total worker budget.
	TotalWorkers int
	// FrameWorkers is how many frames run concurrently (1 for the canonical
	// view).
	FrameWorkers int
	// WorkersPerFrame is each frame's intra-frame worker share.
	WorkersPerFrame int
	// GridCells is GridRows*GridCols for grid terrains, 0 for irregular TINs.
	GridCells int
	// Bands and TileCols are the tile-grid dimensions when Tiled.
	Bands, TileCols int
	// Kernel is the algorithm every solve of the plan runs: the requested
	// one, except that a parallel request runs sequential-tree. All exact
	// algorithms emit the same bytes, so for them the request's algorithm
	// names a result contract and Kernel the code path that meets it.
	Kernel string
	// Level is the LOD pyramid level the plan solves (0 = finest or no
	// pyramid), LevelCount the number of levels available (0 when the
	// terrain has no pyramid), and LevelCellSize the solved level's sample
	// spacing. Stamped by LevelSet.PlanLevel.
	Level, LevelCount int
	LevelCellSize     float64

	reasons []string
}

// Mode names the plan's pipeline: "monolithic" or "tiled" for the
// canonical view, "batched" or "batched-tiled" for perspective frames,
// "out-of-core" for a paged executor and "coherent" for a session. The
// strings are wire vocabulary (the JSON mode field, /metricsz labels).
func (p *Plan) Mode() string {
	switch {
	case p.Session:
		return "coherent"
	case p.Paged:
		return "out-of-core"
	case p.Perspective && p.Tiled:
		return "batched-tiled"
	case p.Perspective:
		return "batched"
	case p.Tiled:
		return "tiled"
	}
	return "monolithic"
}

// Explain renders the plan and every routing decision behind it as one
// human-readable line — the operator-facing answer to "which engine did my
// query actually take, and why".
func (p *Plan) Explain() string {
	var b strings.Builder
	b.Grow(256)
	fmt.Fprintf(&b, "engine=%s workers=%d", p.Mode(), p.TotalWorkers)
	if p.Perspective {
		fmt.Fprintf(&b, " frames=%d (%d concurrent x %d workers each)", p.Frames, p.FrameWorkers, p.WorkersPerFrame)
	}
	if p.Tiled {
		fmt.Fprintf(&b, " tiles=%dx%d (bands x cols)", p.Bands, p.TileCols)
	}
	fmt.Fprintf(&b, " kernel=%s", p.Kernel)
	if p.LevelCount > 0 {
		fmt.Fprintf(&b, " level=%d/%d (cell %g)", p.Level, p.LevelCount, p.LevelCellSize)
	}
	for _, r := range p.reasons {
		b.WriteString("; ")
		b.WriteString(r)
	}
	return b.String()
}

// addReason records one routing decision for Explain.
func (p *Plan) addReason(format string, args ...any) {
	p.reasons = append(p.reasons, fmt.Sprintf(format, args...))
}

// Plan inspects the request against the executor's terrain and produces
// the plan: the pipeline (paged executors always tile; resident grids tile
// at or above the TileCells threshold), the frame schedule, the
// worker-budget split and the kernel. It is the one place a query's route
// is decided, so it rejects an unknown algorithm before it tiles or
// prepares anything.
func (e *Executor) Plan(req Request) (*Plan, error) {
	algo := req.Algorithm
	if algo == "" {
		algo = AlgoParallel
	}
	if err := checkAlgorithm(algo); err != nil {
		return nil, err
	}
	if err := req.checkFinite(); err != nil {
		return nil, err
	}
	p := &Plan{Perspective: req.Perspective, Paged: e.paged != nil}
	switch {
	case p.Paged:
		p.Tiled = true
		p.GridCells = e.paged.Rows * e.paged.Cols
		p.addReason("out-of-core: %s", e.pagedReason)
	case e.t == nil:
		return nil, fmt.Errorf("terrainhsr: nil terrain")
	case !e.t.IsGrid():
		p.addReason("irregular TIN has no grid structure to tile")
	default:
		rows, cols := e.t.GridRows, e.t.GridCols
		p.GridCells = rows * cols
		threshold := req.TileCells
		if threshold == 0 {
			threshold = DefaultTileCells
		}
		switch {
		case threshold < 0:
			p.addReason("automatic tiled routing disabled (TileCells < 0)")
		case p.GridCells >= threshold:
			p.Tiled = true
			p.addReason("grid %dx%d: %d cells >= tiled threshold %d", rows, cols, p.GridCells, threshold)
		default:
			p.addReason("grid %dx%d: %d cells < tiled threshold %d", rows, cols, p.GridCells, threshold)
		}
	}
	if p.Tiled {
		if err := e.EnsureTiles(); err != nil {
			return nil, err
		}
		p.Bands, p.TileCols = e.part.NumBands, e.part.NumCols
	}

	p.TotalWorkers = req.Workers
	if p.TotalWorkers <= 0 {
		p.TotalWorkers = parallel.DefaultWorkers()
	}
	p.FrameWorkers, p.WorkersPerFrame = 1, p.TotalWorkers
	if req.Perspective {
		p.Frames = len(req.Eyes)
		switch {
		case !p.Paged:
			p.FrameWorkers, p.WorkersPerFrame = SplitBudget(req.Workers, req.FrameWorkers, p.Frames)
		case p.Frames > 1:
			p.addReason("frames serialized to keep residency at one band")
		}
	}
	p.Kernel = algo
	if p.Kernel == AlgoParallel {
		// The paper's kernel charges 5.9x to 9.4x sequential-tree's work
		// (TH5), and no measured solve, tiled or monolithic, has had the
		// workers to repay it (ALGORITHM.md, "Kernel choice"). Both emit the
		// same bytes.
		p.Kernel = AlgoSequentialTree
		p.reasons = append(p.reasons, "kernel sequential-tree: same bytes as parallel for less work")
	}
	return p, nil
}

// SplitBudget divides one worker budget for n concurrent frames: how many
// frames run at once and each frame's intra-frame share (at least 1). With
// frameWorkers <= 0 it picks min(n, workers): with many frames each then
// runs single-worker (frame-level parallelism scales better than intra-frame
// parallelism and keeps the goroutine count at the budget); with few frames
// the remaining budget goes to intra-frame workers. Explicit frameWorkers
// are honored even if they oversubscribe. This is the one place the
// oversubscription policy lives; every engine and the server's cache-aware
// fan-out share it.
func SplitBudget(workers, frameWorkers, n int) (concurrent, perFrame int) {
	if n <= 0 {
		return 0, 0
	}
	total := workers
	if total <= 0 {
		total = parallel.DefaultWorkers()
	}
	concurrent = frameWorkers
	if concurrent <= 0 {
		concurrent = total
	}
	if concurrent > n {
		concurrent = n
	}
	perFrame = total / concurrent
	if perFrame < 1 {
		perFrame = 1
	}
	return concurrent, perFrame
}
