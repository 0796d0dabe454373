package terrainhsr

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"terrainhsr/internal/engine"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/workload"
)

// Point is a world-space point with Z = height at plan position (X, Y).
type Point struct {
	X, Y, Z float64
}

// Terrain is a triangulated terrain surface ready for visibility queries.
type Terrain struct {
	t *terrain.Terrain
}

// NumEdges returns the number of terrain edges (the algorithm's n).
func (t *Terrain) NumEdges() int { return t.t.NumEdges() }

// NumVertices returns the number of terrain vertices.
func (t *Terrain) NumVertices() int { return len(t.t.Verts) }

// NumTriangles returns the number of terrain faces.
func (t *Terrain) NumTriangles() int { return len(t.t.Tris) }

// HeightAt samples the surface at plan position (x, y); ok is false outside
// the terrain's domain.
func (t *Terrain) HeightAt(x, y float64) (z float64, ok bool) { return t.t.HeightAt(x, y) }

// HeightFunc gives the height of grid vertex (i, j); i runs along the
// viewing (depth) axis.
type HeightFunc func(i, j int) float64

// NewGridTerrain builds a regular-grid TIN with (rows+1)x(cols+1) vertices
// at spacing (dx, dy) and heights from h.
func NewGridTerrain(rows, cols int, dx, dy float64, h HeightFunc) (*Terrain, error) {
	tt, err := terrain.Grid{Rows: rows, Cols: cols, Dx: dx, Dy: dy, H: terrain.HeightFn(h)}.Build()
	if err != nil {
		return nil, err
	}
	if err := tt.Validate(); err != nil {
		return nil, err
	}
	return &Terrain{t: tt}, nil
}

// NewTerrain builds a terrain from explicit vertices and triangles
// (counter-clockwise or clockwise; orientation is normalized).
func NewTerrain(verts []Point, tris [][3]int32) (*Terrain, error) {
	vs := make([]geom.Pt3, len(verts))
	for i, v := range verts {
		vs[i] = geom.Pt3{X: v.X, Y: v.Y, Z: v.Z}
	}
	tt, err := terrain.New(vs, tris)
	if err != nil {
		return nil, err
	}
	if err := tt.Validate(); err != nil {
		return nil, err
	}
	return &Terrain{t: tt}, nil
}

// NewMeshTerrain builds a terrain from polygonal faces, triangulating each
// face (the paper's optional triangulation step).
func NewMeshTerrain(verts []Point, faces [][]int32) (*Terrain, error) {
	vs := make([]geom.Pt3, len(verts))
	for i, v := range verts {
		vs[i] = geom.Pt3{X: v.X, Y: v.Y, Z: v.Z}
	}
	tt, err := terrain.TriangulateMesh(vs, faces)
	if err != nil {
		return nil, err
	}
	if err := tt.Validate(); err != nil {
		return nil, err
	}
	return &Terrain{t: tt}, nil
}

// GenParams selects a synthetic terrain family; see package
// internal/workload for the catalogue. Kind is one of "fractal",
// "sinusoid", "ridge", "tilted-up", "tilted-down", "rough", "steps",
// "massive" (fractal relief with occluding mountain ranges — the
// production-scale scenario the tiled solver targets).
type GenParams struct {
	Kind        string
	Rows, Cols  int
	Seed        int64
	Amplitude   float64
	RidgeHeight float64
	Slope       float64
	// Shear tilts the plan grid to keep edges off the exact viewing
	// direction (general position); 0 selects a sensible default,
	// negative disables.
	Shear float64
}

// Generate builds a synthetic terrain.
func Generate(p GenParams) (*Terrain, error) {
	tt, err := workload.Generate(workload.Params{
		Kind: workload.Kind(p.Kind), Rows: p.Rows, Cols: p.Cols, Seed: p.Seed,
		Amplitude: p.Amplitude, RidgeHeight: p.RidgeHeight, Slope: p.Slope, Shear: p.Shear,
	})
	if err != nil {
		return nil, err
	}
	return &Terrain{t: tt}, nil
}

// GenerateKinds lists the synthetic terrain families.
func GenerateKinds() []string {
	out := make([]string, len(workload.Kinds))
	for i, k := range workload.Kinds {
		out[i] = string(k)
	}
	return out
}

// FromPerspective returns the terrain transformed so that a perspective
// view from the given eye point (looking in +x) becomes the canonical
// orthographic view solved by this library. Every vertex must be at least
// minDepth in front of the eye.
func (t *Terrain) FromPerspective(eye Point, minDepth float64) (*Terrain, error) {
	pt := geom.PerspectiveTransform{Eye: geom.Pt3{X: eye.X, Y: eye.Y, Z: eye.Z}, MinDepth: minDepth}
	tt, err := t.t.Transform(pt.Apply)
	if err != nil {
		return nil, err
	}
	return &Terrain{t: tt}, nil
}

// Algorithm selects a solver.
type Algorithm string

const (
	// Parallel is the paper's output-sensitive parallel algorithm
	// (persistent profile trees, summary pruning). The default. As a
	// request it names the answer, the bytes every exact algorithm emits;
	// the plan names the kernel that computes it. Every plan of a Parallel
	// request runs SequentialTree, whose charged work is 5.9x to 9.4x
	// smaller (ALGORITHM.md, "Kernel choice"); ParallelHulls still runs the
	// paper's kernel.
	Parallel Algorithm = "parallel"
	// ParallelHulls is the same algorithm with the exact hull-augmented
	// ACG pruning of Lemmas 3.3-3.6.
	ParallelHulls Algorithm = "parallel-hulls"
	// ParallelCopying is the non-output-sensitive parallelization that
	// copies prefix profiles down the PCT (the A1 ablation baseline).
	ParallelCopying Algorithm = "parallel-copying"
	// Sequential is the Reif-Sen sequential algorithm with the flat-array
	// profile (simple, trusted baseline).
	Sequential Algorithm = "sequential"
	// SequentialTree is the Reif-Sen sequential algorithm with the
	// efficient persistent-tree profile and crossing queries — the
	// O((n+k) polylog n) sequential bound the parallel algorithm is
	// compared against.
	SequentialTree Algorithm = "sequential-tree"
	// BruteForce recomputes each edge's occluder envelope from scratch
	// (ground truth for tests; quadratic).
	BruteForce Algorithm = "brute-force"
	// AllPairs additionally counts every pairwise image crossing (the
	// intersection-sensitive baseline of experiment TH3).
	AllPairs Algorithm = "all-pairs"
)

// Algorithms lists all selectable solvers.
func Algorithms() []Algorithm {
	return []Algorithm{Parallel, ParallelHulls, ParallelCopying, Sequential, SequentialTree, BruteForce, AllPairs}
}

// servedAlgorithms is the set ServedAlgorithms returns copies of.
var servedAlgorithms = []Algorithm{Parallel, ParallelHulls, ParallelCopying, Sequential, SequentialTree}

// ServedAlgorithms lists the solvers a Server answers with: every algorithm
// but the quadratic baselines BruteForce and AllPairs. One baseline query on
// a large terrain can pin a worker for hours, so they are ground truth and
// ablation tools for Solve only.
func ServedAlgorithms() []Algorithm {
	return slices.Clone(servedAlgorithms)
}

// checkServed reports a located error naming the served set when a query
// asks for an algorithm a Server does not answer with. It runs on every
// query, cache hits included, so the accepting path allocates nothing.
func checkServed(a Algorithm) error {
	a = resolveAlgo(a)
	if slices.Contains(servedAlgorithms, a) {
		return nil
	}
	names := make([]string, len(servedAlgorithms))
	for i, s := range servedAlgorithms {
		names[i] = string(s)
	}
	return fmt.Errorf("terrainhsr: algorithm %q is not served (served: %s)", a, strings.Join(names, ", "))
}

// Options configures Solve.
type Options struct {
	// Algorithm defaults to Parallel. It names the answer; the plan names
	// the kernel that solves (Parallel runs SequentialTree, every other
	// algorithm runs itself). All exact algorithms emit the same bytes, so
	// only Result's charged work and phase accounting tell kernels apart.
	Algorithm Algorithm
	// Workers bounds the goroutine count for parallel algorithms
	// (0 = all CPUs).
	Workers int
}

// Piece is one maximal visible portion of a terrain edge, in image-plane
// coordinates (X = world y, Z = height). For edges seen end-on, X1 == X2
// and [Z1, Z2] is the visible height range.
type Piece struct {
	Edge           int32
	X1, Z1, X2, Z2 float64
}

// Result is the visible-scene description plus the cost accounting used by
// the reproduction experiments.
type Result struct {
	res  *hsr.Result
	algo Algorithm

	piecesOnce sync.Once
	pieces     []Piece
}

// Solve computes the visible scene. It is a thin adapter over the
// internal/engine planner and executor, planned never to tile (the
// documented contract of Solve); use a Server or SolveStream for
// size-based automatic routing.
func Solve(t *Terrain, opt Options) (*Result, error) {
	if t == nil || t.t == nil {
		return nil, fmt.Errorf("terrainhsr: nil terrain")
	}
	return runSingle(engine.New(t.t, engine.Config{}), singleRequest(opt, neverTile), opt.Algorithm)
}

// resolveAlgo applies the default algorithm.
func resolveAlgo(a Algorithm) Algorithm {
	if a == "" {
		return Parallel
	}
	return a
}

// newResult tags an internal result with the algorithm that produced it.
func newResult(r *hsr.Result, algo Algorithm) *Result {
	return &Result{res: r, algo: resolveAlgo(algo)}
}

// The tiled-routing thresholds (engine.Request.TileCells) the adapters
// plan with.
const (
	neverTile   = -1 // Solve, Solver and BatchSolver: the monolithic contract
	alwaysTile  = 1  // TiledSolver: every grid tiles
	routeBySize = 0  // the streaming paths: engine.DefaultTileCells
)

// singleRequest builds the engine request of a canonical-view solve.
func singleRequest(opt Options, tileCells int) engine.Request {
	return engine.Request{
		Algorithm: string(opt.Algorithm),
		Workers:   opt.Workers,
		TileCells: tileCells,
	}
}

// batchRequest builds the engine request of a multi-viewpoint solve.
func batchRequest(opt BatchOptions, eyes []Point, tileCells int) engine.Request {
	return engine.Request{
		Algorithm:    string(opt.Algorithm),
		Workers:      opt.Workers,
		FrameWorkers: opt.FrameWorkers,
		Perspective:  true,
		Eyes:         pts3(eyes),
		MinDepth:     opt.MinDepth,
		TileCells:    tileCells,
	}
}

// pts3 converts public points to geometry points.
func pts3(pts []Point) []geom.Pt3 {
	out := make([]geom.Pt3, len(pts))
	for i, p := range pts {
		out[i] = pt3(p)
	}
	return out
}

// runSingle plans and executes a one-result request.
func runSingle(e *engine.Executor, req engine.Request, algo Algorithm) (*Result, error) {
	outs, _, err := runPlanned(e, req)
	if err != nil {
		return nil, err
	}
	return newResult(outs[0].Res, algo), nil
}

// runMany plans and executes a multi-frame request, wrapping every frame.
func runMany(e *engine.Executor, req engine.Request, algo Algorithm) ([]*Result, error) {
	outs, _, err := runPlanned(e, req)
	if err != nil || len(outs) == 0 {
		return nil, err
	}
	rs := make([]*Result, len(outs))
	for i, oc := range outs {
		rs[i] = newResult(oc.Res, algo)
	}
	return rs, nil
}

// runPlanned is the plan-then-execute step shared by every adapter.
func runPlanned(e *engine.Executor, req engine.Request) ([]engine.Outcome, *engine.Plan, error) {
	plan, err := e.Plan(req)
	if err != nil {
		return nil, nil, err
	}
	outs, err := e.Run(plan, req)
	if err != nil {
		return nil, nil, err
	}
	return outs, plan, nil
}

// Algorithm returns the algorithm the result was requested with: the name
// of the answer, not always of the kernel that solved (see
// Options.Algorithm).
func (r *Result) Algorithm() Algorithm { return r.algo }

// N returns the input size (terrain edges).
func (r *Result) N() int { return r.res.N }

// K returns the output size: the number of visible pieces (the displayed
// image has Theta(K) vertices and edges).
func (r *Result) K() int { return r.res.K() }

// Pieces returns the visible pieces sorted by edge and position. The
// conversion is computed once and cached: every call returns the same
// slice, which callers must treat as read-only (cache-hit server queries
// already share the whole Result). Iterating with EachPiece avoids even the
// one cached copy.
func (r *Result) Pieces() []Piece {
	r.piecesOnce.Do(func() {
		out := make([]Piece, len(r.res.Pieces))
		for i, p := range r.res.Pieces {
			out[i] = toPiece(p)
		}
		r.pieces = out
	})
	return r.pieces
}

// toPiece converts an internal visible piece to the public type.
func toPiece(p hsr.VisiblePiece) Piece {
	return Piece{Edge: p.Edge, X1: p.Span.X1, Z1: p.Span.Z1, X2: p.Span.X2, Z2: p.Span.Z2}
}

// EachPiece calls yield for every visible piece in canonical (edge,
// position) order, stopping early if yield returns false. It is the
// zero-copy alternative to Pieces: nothing is allocated, so massive scenes
// can be walked without holding a second copy of the visible scene.
func (r *Result) EachPiece(yield func(Piece) bool) {
	for _, p := range r.res.Pieces {
		if !yield(toPiece(p)) {
			return
		}
	}
}

// VisibleLength returns the total image-plane length of the visible scene.
func (r *Result) VisibleLength() float64 { return r.res.VisibleLength() }

// Work returns the charged elementary operations (the PRAM work measure).
func (r *Result) Work() int64 { return r.res.Work() }

// Depth returns the PRAM critical path (parallel time with unlimited
// processors); zero for purely sequential solvers without phase structure.
func (r *Result) Depth() int64 {
	if r.res.Acct == nil {
		return 0
	}
	return r.res.Acct.Depth()
}

// TimeOnPRAM evaluates the Brent slow-down bound for p processors
// (Lemma 2.1 of the paper), in charged operations.
func (r *Result) TimeOnPRAM(p int) float64 {
	if r.res.Acct == nil {
		return float64(r.Work())
	}
	return r.res.Acct.TimeOn(p)
}

// Crossings returns the number of image vertex events discovered
// (crossings between edges and their prefix envelopes).
func (r *Result) Crossings() int64 { return r.res.Crossings }

// IntersectionsI returns the total pairwise image-plane crossing count;
// populated only by the AllPairs baseline.
func (r *Result) IntersectionsI() int64 { return r.res.IntersectionsI }

// PhaseSummary renders the PRAM per-phase accounting table.
func (r *Result) PhaseSummary() string {
	if r.res.Acct == nil {
		return ""
	}
	return r.res.Acct.Summary()
}

// internalResult exposes the underlying result to sibling root-package
// files (rendering) without widening the public surface.
func (r *Result) internalResult() *hsr.Result { return r.res }

// internalTerrain likewise.
func (t *Terrain) internalTerrain() *terrain.Terrain { return t.t }
