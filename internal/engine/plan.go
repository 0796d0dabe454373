package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/obs"
	"terrainhsr/internal/parallel"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/tile"
)

// Mode identifies the execution pipeline a plan selected.
type Mode string

const (
	// ModeMonolithic solves the canonical view in one piece.
	ModeMonolithic Mode = "monolithic"
	// ModeTiled solves the canonical view band by band through the tiled
	// pipeline.
	ModeTiled Mode = "tiled"
	// ModeBatched solves one or more perspective frames, each in one piece.
	ModeBatched Mode = "batched"
	// ModeBatchedTiled solves one or more perspective frames, each through
	// the tiled pipeline.
	ModeBatchedTiled Mode = "batched-tiled"
	// ModeOutOfCore solves band by band against paged heights: the terrain
	// is never resident, tiles page in on demand, and envelope-culled tiles
	// are never read. Chosen when a level's estimated resident bytes exceed
	// the configured residency budget (see NewLevelSet).
	ModeOutOfCore Mode = "out-of-core"
	// ModeCoherent runs frames of a flyover session through one of the
	// pipelines above, warm-started from the previous frame: a bitwise
	// identical eye replays the recorded stream, and tiled frames verify
	// and reuse the prior frame's tile verdicts (see PlanSession).
	ModeCoherent Mode = "coherent"
)

// Force restricts the planner's engine choice. The zero value plans
// automatically.
type Force string

const (
	// Auto lets the planner route by terrain shape, size and threshold.
	Auto Force = ""
	// ForceMonolithic never tiles (the contract of Solve and BatchSolver:
	// byte-identical to the per-viewpoint monolithic pipeline).
	ForceMonolithic Force = "monolithic"
	// ForceTiled always tiles and fails on terrains without grid structure
	// (the contract of TiledSolver).
	ForceTiled Force = "tiled"
)

// DefaultTileCells is the automatic tiled-routing threshold: grid terrains
// with at least this many cells (512x512) route through the tiled pipeline
// when planning is not forced.
const DefaultTileCells = 262144

// Request describes one solve as every public entry point expresses it.
type Request struct {
	// Algorithm names the solver ("" selects the default parallel
	// algorithm); validation happens at dispatch.
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
	// Force restricts the engine choice; Auto routes by size.
	Force Force
	// TileCells is the automatic tiled-routing threshold in grid cells
	// (0 = DefaultTileCells; negative disables automatic tiling).
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
	// Mode is the selected pipeline.
	Mode Mode
	// Tiled reports whether the pipeline partitions the terrain into tiles.
	Tiled bool
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
	// Level is the LOD pyramid level the plan solves (0 = finest or no
	// pyramid), LevelCount the number of levels available (0 when the
	// terrain has no pyramid), and LevelCellSize the solved level's sample
	// spacing. Stamped by LevelSet.PlanLevel.
	Level, LevelCount int
	LevelCellSize     float64

	reasons []string
}

// Explain renders the plan and every routing decision behind it as one
// human-readable line — the operator-facing answer to "which engine did my
// query actually take, and why".
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine=%s workers=%d", p.Mode, p.TotalWorkers)
	if p.Perspective {
		fmt.Fprintf(&b, " frames=%d (%d concurrent x %d workers each)", p.Frames, p.FrameWorkers, p.WorkersPerFrame)
	}
	if p.Tiled {
		fmt.Fprintf(&b, " tiles=%dx%d (bands x cols)", p.Bands, p.TileCols)
	}
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

// Planner decides how a Request runs on one terrain. The terrain and tile
// sizing are immutable, so the tile partition is computed once — it is
// the single source of truth for the tile grid, shared with the Executor
// — and planning is cheap enough to run per query.
type Planner struct {
	t    *terrain.Terrain
	spec tile.Spec

	// oocRows/oocCols (cells) replace t for out-of-core planning: the grid
	// shape is known but no resident terrain exists. oocReason is the
	// routing explanation stamped into every plan.
	oocRows, oocCols int
	oocReason        string

	partOnce sync.Once
	part     *tile.Partition
	partErr  error
}

// NewPlanner builds a planner for a terrain; spec selects the tile sizing
// used whenever a plan tiles (zero values pick the automatic size).
func NewPlanner(t *terrain.Terrain, spec tile.Spec) *Planner {
	return &Planner{t: t, spec: spec}
}

// NewPagedPlanner builds a planner for an out-of-core grid of rows x cols
// cells. Every plan it produces is tiled (ModeOutOfCore) and carries reason
// — typically "estimated N MB resident exceeds budget M MB" — in its
// explanation.
func NewPagedPlanner(rows, cols int, spec tile.Spec, reason string) *Planner {
	return &Planner{oocRows: rows, oocCols: cols, spec: spec, oocReason: reason}
}

// partition returns the tile partition of the planner's spec, computed
// once. Plans report its shape and Executor.EnsureTiles executes against
// the same object, so the explained tile grid is by construction the one
// that runs.
func (pl *Planner) partition() (*tile.Partition, error) {
	pl.partOnce.Do(func() {
		if pl.oocRows > 0 {
			pl.part, pl.partErr = tile.NewPartition(pl.oocRows, pl.oocCols, pl.spec)
			return
		}
		if pl.t == nil || !pl.t.IsGrid() {
			pl.partErr = fmt.Errorf("terrainhsr: tiled solving needs a grid terrain (NewGridTerrain or Generate)")
			return
		}
		pl.part, pl.partErr = tile.NewPartition(pl.t.GridRows, pl.t.GridCols, pl.spec)
	})
	return pl.part, pl.partErr
}

// Plan inspects the request against the terrain and produces the plan: the
// pipeline (by forced override, else by grid structure and the TileCells
// threshold), the frame schedule, and the worker-budget split.
func (pl *Planner) Plan(req Request) (*Plan, error) {
	if err := req.checkFinite(); err != nil {
		return nil, err
	}
	if pl.oocRows > 0 {
		return pl.planPaged(req)
	}
	if pl.t == nil {
		return nil, fmt.Errorf("terrainhsr: nil terrain")
	}
	p := &Plan{Perspective: req.Perspective}
	grid := pl.t.IsGrid()
	if grid {
		p.GridCells = pl.t.GridRows * pl.t.GridCols
	}

	switch req.Force {
	case ForceTiled:
		if !grid {
			return nil, fmt.Errorf("terrainhsr: tiled solving needs a grid terrain (NewGridTerrain or Generate)")
		}
		p.Tiled = true
		p.addReason("tiled forced by caller")
	case ForceMonolithic:
		p.addReason("monolithic forced by caller")
	case Auto:
		threshold := req.TileCells
		if threshold == 0 {
			threshold = DefaultTileCells
		}
		switch {
		case !grid:
			p.addReason("irregular TIN has no grid structure to tile")
		case threshold < 0:
			p.addReason("automatic tiled routing disabled (TileCells < 0)")
		case p.GridCells >= threshold:
			p.Tiled = true
			p.addReason("grid %dx%d: %d cells >= tiled threshold %d",
				pl.t.GridRows, pl.t.GridCols, p.GridCells, threshold)
		default:
			p.addReason("grid %dx%d: %d cells < tiled threshold %d",
				pl.t.GridRows, pl.t.GridCols, p.GridCells, threshold)
		}
	default:
		return nil, fmt.Errorf("terrainhsr: unknown engine override %q", req.Force)
	}
	if p.Tiled {
		part, err := pl.partition()
		if err != nil {
			return nil, err
		}
		p.Bands, p.TileCols = part.NumBands, part.NumCols
	}

	p.TotalWorkers = req.Workers
	if p.TotalWorkers <= 0 {
		p.TotalWorkers = parallel.DefaultWorkers()
	}
	if req.Perspective {
		p.Frames = len(req.Eyes)
		p.FrameWorkers, p.WorkersPerFrame = SplitBudget(req.Workers, req.FrameWorkers, p.Frames)
		if p.Tiled {
			p.Mode = ModeBatchedTiled
		} else {
			p.Mode = ModeBatched
		}
	} else {
		p.FrameWorkers, p.WorkersPerFrame = 1, p.TotalWorkers
		if p.Tiled {
			p.Mode = ModeTiled
		} else {
			p.Mode = ModeMonolithic
		}
	}
	return p, nil
}

// planPaged plans a request for an out-of-core grid. There is only one
// pipeline: the banded tiled solve over paged heights. Monolithic execution
// is impossible (it needs the whole terrain resident — exactly what
// out-of-core routing decided against), and perspective frames run one at a
// time so residency stays bounded by a band, not a band per frame.
func (pl *Planner) planPaged(req Request) (*Plan, error) {
	switch req.Force {
	case Auto, ForceTiled:
	case ForceMonolithic:
		return nil, fmt.Errorf("terrainhsr: monolithic solving needs a resident terrain; this level is out-of-core (%s)", pl.oocReason)
	default:
		return nil, fmt.Errorf("terrainhsr: unknown engine override %q", req.Force)
	}
	p := &Plan{
		Mode: ModeOutOfCore, Tiled: true,
		Perspective: req.Perspective,
		GridCells:   pl.oocRows * pl.oocCols,
	}
	p.addReason("out-of-core: %s", pl.oocReason)
	part, err := pl.partition()
	if err != nil {
		return nil, err
	}
	p.Bands, p.TileCols = part.NumBands, part.NumCols
	p.TotalWorkers = req.Workers
	if p.TotalWorkers <= 0 {
		p.TotalWorkers = parallel.DefaultWorkers()
	}
	p.FrameWorkers, p.WorkersPerFrame = 1, p.TotalWorkers
	if req.Perspective {
		p.Frames = len(req.Eyes)
		if p.Frames > 1 {
			p.addReason("frames serialized to keep residency at one band")
		}
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
