package terrainhsr

import (
	"fmt"
	"math"

	"terrainhsr/internal/engine"
	"terrainhsr/internal/geom"
)

// This file is the batch/multi-viewpoint solve engine: one terrain, many
// perspective eye points — the viewshed-grid and flyover workloads — solved
// as a stream with amortized shared state instead of independent one-shot
// pipelines. Four costs are amortized across frames:
//
//   - Topology: the triangle and edge tables are built and validated once;
//     each frame only maps the vertices through its perspective transform
//     (terrain.TransformShared) instead of re-deriving adjacency.
//   - Depth order: each frame prepares its view's depth order into a pooled
//     set-up arena (hsr.PrepareArena) that keeps its buffers between
//     frames, and the frame's algorithm solves that prepared order.
//   - Tree arenas: the persistent profile-tree storage that dominates a
//     solve's allocations is drawn from the kernels' own pool in package
//     hsr and rewound between solves, so steady-state frames run nearly
//     allocation-free.
//   - Scheduling: frames and intra-frame workers share one bounded budget
//     (FrameWorkers x Workers-per-frame), so a batch saturates the machine
//     without oversubscribing it.
//
// The engine never changes answers: every frame runs the same algorithm a
// per-viewpoint FromPerspective + Solve would run, and produces
// byte-identical Pieces (asserted by TestSolveBatchByteIdenticalToSolve
// across algorithms and worker splits).

// ViewPath is a camera path: a finite sequence of perspective eye points.
// Construct one with LinePath, OrbitPath or WaypointPath, or build the
// slice yourself and call SolveBatch directly.
type ViewPath struct {
	eyes []Point
}

// LinePath interpolates frames eye points from a to b, inclusive.
func LinePath(from, to Point, frames int) ViewPath {
	return fromPts(geom.LinePts(pt3(from), pt3(to), frames))
}

// OrbitPath places frames eye points on the horizontal circle of the given
// radius around center, at height center.Z, sweeping from startDeg by
// sweepDeg degrees (inclusive endpoints). Angle 0 is the -x direction from
// the center — the side a canonical-view terrain is observed from — and
// positive angles turn toward +y. Note that eyes must stay in front of
// (smaller x than) every terrain vertex to be solvable, so terrains are
// typically orbited with partial arcs on their -x side.
func OrbitPath(center Point, radius, startDeg, sweepDeg float64, frames int) ViewPath {
	return fromPts(geom.OrbitPts(pt3(center), radius, startDeg*math.Pi/180, sweepDeg*math.Pi/180, frames))
}

// WaypointPath interpolates frames eye points along the piecewise-linear
// route through the waypoints, parameterized by arc length (inclusive
// endpoints).
func WaypointPath(waypoints []Point, frames int) ViewPath {
	pts := make([]geom.Pt3, len(waypoints))
	for i, p := range waypoints {
		pts[i] = pt3(p)
	}
	return fromPts(geom.WaypointPts(pts, frames))
}

// Viewpoints returns the path's eye points.
func (p ViewPath) Viewpoints() []Point {
	out := make([]Point, len(p.eyes))
	copy(out, p.eyes)
	return out
}

// Frames returns the number of eye points on the path.
func (p ViewPath) Frames() int { return len(p.eyes) }

func fromPts(pts []geom.Pt3) ViewPath {
	eyes := make([]Point, len(pts))
	for i, q := range pts {
		eyes[i] = Point{X: q.X, Y: q.Y, Z: q.Z}
	}
	return ViewPath{eyes: eyes}
}

func pt3(p Point) geom.Pt3 { return geom.Pt3{X: p.X, Y: p.Y, Z: p.Z} }

// BatchOptions configures a batch solve. The embedded Options select the
// per-frame algorithm and the total worker budget, exactly as for Solve.
type BatchOptions struct {
	Options
	// MinDepth is the minimum allowed x-distance between an eye and any
	// terrain vertex, as in Terrain.FromPerspective; <= 0 selects the same
	// default that FromPerspective applies.
	MinDepth float64
	// FrameWorkers bounds how many frames are solved concurrently. 0 picks
	// min(frames, Workers): with many frames each frame then runs
	// single-worker (frame-level parallelism scales better than intra-frame
	// parallelism and keeps the total goroutine count at the Workers
	// budget); with few frames the remaining budget goes to intra-frame
	// workers, Workers/FrameWorkers each. Explicit values are honored even
	// if they oversubscribe.
	FrameWorkers int
}

// BatchSolver solves one terrain from many viewpoints, amortizing topology,
// validation and tree-arena storage across frames. It is a thin adapter
// over the internal/engine planner and executor, planned never to tile a
// frame (its contract is byte-identity with the per-viewpoint pipeline). It is safe for concurrent use and may be
// reused for any number of batches; the executor's arena pool keeps the
// amortization across calls.
type BatchSolver struct {
	t   *Terrain
	eng *engine.Executor
}

// NewBatchSolver prepares a batch engine for the terrain.
func NewBatchSolver(t *Terrain) (*BatchSolver, error) {
	if t == nil || t.t == nil {
		return nil, fmt.Errorf("terrainhsr: nil terrain")
	}
	return &BatchSolver{t: t, eng: engine.New(t.t, engine.Config{})}, nil
}

// Terrain returns the terrain this batch solver was built for.
func (b *BatchSolver) Terrain() *Terrain { return b.t }

// Solve computes the visible scene from every eye point. Results are
// returned in eye order and are byte-identical to what the per-viewpoint
// pipeline — FromPerspective(eye, MinDepth) then Solve with the same
// Options — produces for each eye. On error the failure with the lowest
// frame index is reported, deterministically: frames beyond the failure are
// skipped, frames before it still run.
func (b *BatchSolver) Solve(eyes []Point, opt BatchOptions) ([]*Result, error) {
	return runMany(b.eng, batchRequest(opt, eyes, neverTile), opt.Algorithm)
}

// SolvePath solves every viewpoint of a camera path.
func (b *BatchSolver) SolvePath(path ViewPath, opt BatchOptions) ([]*Result, error) {
	return b.Solve(path.eyes, opt)
}

// SolveBatch solves the terrain from every eye point with a one-off
// BatchSolver; see BatchSolver.Solve. Callers issuing several batches
// should keep a BatchSolver (or use Solver.SolveMany) so the arena pools
// carry over.
func SolveBatch(t *Terrain, eyes []Point, opt BatchOptions) ([]*Result, error) {
	b, err := NewBatchSolver(t)
	if err != nil {
		return nil, err
	}
	return b.Solve(eyes, opt)
}

// SolveViewPath solves the terrain along a camera path with a one-off
// BatchSolver; see BatchSolver.SolvePath.
func SolveViewPath(t *Terrain, path ViewPath, opt BatchOptions) ([]*Result, error) {
	b, err := NewBatchSolver(t)
	if err != nil {
		return nil, err
	}
	return b.SolvePath(path, opt)
}
