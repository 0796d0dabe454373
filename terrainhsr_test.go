package terrainhsr

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"terrainhsr/internal/engine"
)

func genTest(t *testing.T, kind string, rows, cols int, seed int64) *Terrain {
	t.Helper()
	tr, err := Generate(GenParams{Kind: kind, Rows: rows, Cols: cols, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSolveDefaultAlgorithm(t *testing.T) {
	tr := genTest(t, "fractal", 12, 12, 1)
	res, err := Solve(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm() != Parallel {
		t.Fatalf("default algorithm %q", res.Algorithm())
	}
	if res.K() == 0 || res.N() != tr.NumEdges() {
		t.Fatalf("k=%d n=%d", res.K(), res.N())
	}
	if res.Work() <= 0 || res.Depth() <= 0 {
		t.Fatal("missing accounting")
	}
	if res.TimeOnPRAM(4) <= 0 {
		t.Fatal("missing PRAM time")
	}
	hulls, err := Solve(tr, Options{Algorithm: ParallelHulls})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hulls.PhaseSummary(), "phase1") {
		t.Fatal("phase summary missing phase1")
	}
}

// TestDefaultSolvesRunPlanKernel: a default Solve, Solver.Solve and
// BatchSolver frame each run the kernel their plan names (sequential-tree,
// whose one accounting phase carries its name, not the paper's phase1), and
// answer with the bytes of ParallelHulls, which runs the paper's kernel.
func TestDefaultSolvesRunPlanKernel(t *testing.T) {
	tr := genTest(t, "massive", 24, 24, 1)
	eyes := testEyes(tr, 2)
	planKernel := func(req engine.Request) string {
		t.Helper()
		p, err := engine.New(tr.t, engine.Config{}).Plan(req)
		if err != nil {
			t.Fatal(err)
		}
		return p.Kernel
	}
	check := func(what, kernel string, got, want *Result) {
		t.Helper()
		if kernel != string(SequentialTree) {
			t.Fatalf("%s: plan kernel %q, want %q", what, kernel, SequentialTree)
		}
		if sum := got.PhaseSummary(); !strings.Contains(sum, kernel) || strings.Contains(sum, "phase1") {
			t.Fatalf("%s: phases do not name the plan's kernel %s:\n%s", what, kernel, sum)
		}
		if got.Algorithm() != Parallel {
			t.Fatalf("%s: algorithm %q, want %q", what, got.Algorithm(), Parallel)
		}
		piecesEqual(t, what, got.Pieces(), want.Pieces())
	}

	single := singleRequest(Options{}, neverTile)
	want, err := Solve(tr, Options{Algorithm: ParallelHulls})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("Solve", planKernel(single), got, want)
	sv, err := NewSolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = sv.Solve(Options{}); err != nil {
		t.Fatal(err)
	}
	check("Solver.Solve", planKernel(single), got, want)

	bs, err := NewBatchSolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames, err := bs.Solve(eyes, BatchOptions{Options: Options{Algorithm: ParallelHulls}})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := bs.Solve(eyes, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kernel := planKernel(batchRequest(BatchOptions{}, eyes, neverTile))
	for i := range frames {
		check(fmt.Sprintf("BatchSolver frame %d", i), kernel, frames[i], wantFrames[i])
	}
}

// TestAllAlgorithmsAgree: every crossing and height is computed from the
// two original edges (envelope.Edges), so the five exact algorithms emit
// byte-identical pieces at every worker count, and the quadratic baselines
// emit the same bytes again on the small inputs.
func TestAllAlgorithmsAgree(t *testing.T) {
	exact := []Algorithm{Parallel, ParallelHulls, ParallelCopying, Sequential, SequentialTree}
	type input struct {
		name  string
		p     GenParams
		algos []Algorithm
	}
	var inputs []input
	for _, kind := range []string{"fractal", "ridge", "massive", "sinusoid"} {
		inputs = append(inputs,
			input{kind + " 48x48", GenParams{Kind: kind, Rows: 48, Cols: 48, Seed: 1}, exact},
			input{kind + " 16x16", GenParams{Kind: kind, Rows: 16, Cols: 16, Seed: 2}, Algorithms()})
	}
	// The ridge is also the occluded output-sensitivity scene of the
	// paper's claims (internal/hsr's TestClaimTH3*): a tall wall hiding
	// most of the terrain behind it.
	inputs = append(inputs, input{"ridge 24x24 height 32",
		GenParams{Kind: "ridge", Rows: 24, Cols: 24, Seed: 3, Amplitude: 4, RidgeHeight: 32}, Algorithms()},
		input{"sinusoid 8x8", GenParams{Kind: "sinusoid", Rows: 8, Cols: 8, Seed: 3}, Algorithms()})
	for _, in := range inputs {
		tr, err := Generate(in.p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Solve(tr, Options{Algorithm: Parallel, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Pieces()
		for _, algo := range in.algos {
			workers := []int{1, 2, 4}
			if algo == BruteForce || algo == AllPairs {
				workers = workers[:1] // sequential by construction
			}
			for _, w := range workers {
				res, err := Solve(tr, Options{Algorithm: algo, Workers: w})
				if err != nil {
					t.Fatalf("%s %s: %v", in.name, algo, err)
				}
				got := res.Pieces()
				if len(got) != len(want) {
					t.Fatalf("%s: %s workers=%d emits %d pieces, parallel %d", in.name, algo, w, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: %s workers=%d piece %d is %+v, parallel's %+v", in.name, algo, w, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(nil, Options{}); err == nil {
		t.Fatal("nil terrain accepted")
	}
	tr := genTest(t, "rough", 4, 4, 1)
	if _, err := Solve(tr, Options{Algorithm: "raytracer"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestGenerateKindsAll(t *testing.T) {
	kinds := GenerateKinds()
	if len(kinds) < 5 {
		t.Fatalf("kinds: %v", kinds)
	}
	for _, k := range kinds {
		tr, err := Generate(GenParams{Kind: k, Rows: 4, Cols: 4, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if tr.NumEdges() == 0 {
			t.Fatalf("%s: empty terrain", k)
		}
	}
	if _, err := Generate(GenParams{Kind: "nope", Rows: 4, Cols: 4}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestNewGridTerrainAndHeightAt(t *testing.T) {
	tr, err := NewGridTerrain(4, 4, 1, 1, func(i, j int) float64 { return float64(i) })
	if err != nil {
		t.Fatal(err)
	}
	z, ok := tr.HeightAt(2.5, 2.5)
	if !ok || math.Abs(z-2.5) > 1e-9 {
		t.Fatalf("HeightAt = %v, %v", z, ok)
	}
	if tr.NumVertices() != 25 || tr.NumTriangles() != 32 {
		t.Fatalf("counts %d %d", tr.NumVertices(), tr.NumTriangles())
	}
}

func TestNewTerrainExplicit(t *testing.T) {
	verts := []Point{{0, 0, 0}, {1, 0, 1}, {0, 1, 2}}
	tr, err := NewTerrain(verts, [][3]int32{{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(tr, Options{Algorithm: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if res.K() == 0 {
		t.Fatal("single triangle should be visible")
	}
}

func TestNewMeshTerrain(t *testing.T) {
	verts := []Point{
		{0, 0, 0}, {1, 0, 1}, {2, 0, 0},
		{0, 1, 0}, {1, 1, 2}, {2, 1, 0},
	}
	tr, err := NewMeshTerrain(verts, [][]int32{{0, 1, 4, 3}, {1, 2, 5, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumTriangles() != 4 {
		t.Fatalf("triangles %d", tr.NumTriangles())
	}
}

func TestPerspectivePipeline(t *testing.T) {
	tr := genTest(t, "fractal", 10, 10, 4)
	persp, err := tr.FromPerspective(Point{X: -10, Y: 5, Z: 8}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(persp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Solve(persp, Options{Algorithm: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.VisibleLength()-seq.VisibleLength()) > 1e-6*seq.VisibleLength() {
		t.Fatal("perspective: parallel and sequential disagree")
	}
	// Eye inside the terrain must fail.
	if _, err := tr.FromPerspective(Point{X: 5, Y: 5, Z: 8}, 0.5); err == nil {
		t.Fatal("eye inside terrain accepted")
	}
}

func TestRenderSVG(t *testing.T) {
	tr := genTest(t, "ridge", 8, 8, 5)
	res, err := Solve(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderSVG(&sb, tr, res, RenderOptions{Width: 400, ShowHidden: true, Title: "test"}); err != nil {
		t.Fatal(err)
	}
	svg := sb.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if !strings.Contains(svg, "<line") {
		t.Fatal("no lines rendered")
	}
	if !strings.Contains(svg, "test") {
		t.Fatal("title missing")
	}
}

func TestStatsAndSilhouette(t *testing.T) {
	tr := genTest(t, "fractal", 10, 10, 6)
	res, err := Solve(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.Pieces != res.K() {
		t.Fatalf("stats pieces %d vs K %d", st.Pieces, res.K())
	}
	if st.Vertices == 0 || st.VisibleLength <= 0 || st.EdgesWithVisibility == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	sil := res.Silhouette()
	if len(sil) < 4 {
		t.Fatalf("silhouette too small: %d points", len(sil))
	}
	// Silhouette must be x-sorted.
	for i := 1; i < len(sil); i++ {
		if sil[i][0] < sil[i-1][0]-1e-9 {
			t.Fatal("silhouette not monotone in x")
		}
	}
}

func TestPiecesAccessor(t *testing.T) {
	tr := genTest(t, "sinusoid", 6, 6, 7)
	res, err := Solve(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pieces := res.Pieces()
	if len(pieces) != res.K() {
		t.Fatalf("pieces %d vs K %d", len(pieces), res.K())
	}
	for _, p := range pieces {
		if p.X2 < p.X1 {
			t.Fatalf("unordered piece %+v", p)
		}
	}
}

func TestAllPairsExposesI(t *testing.T) {
	tr := genTest(t, "rough", 6, 6, 8)
	res, err := Solve(tr, Options{Algorithm: AllPairs})
	if err != nil {
		t.Fatal(err)
	}
	if res.IntersectionsI() <= 0 {
		t.Fatal("AllPairs did not report I")
	}
}
