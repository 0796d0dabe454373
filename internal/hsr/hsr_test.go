package hsr

import (
	"math"
	"testing"

	"terrainhsr/internal/terrain"
	"terrainhsr/internal/workload"
)

func genT(t *testing.T, kind workload.Kind, rows, cols int, seed int64) *terrain.Terrain {
	t.Helper()
	tr, err := workload.Generate(workload.Params{Kind: kind, Rows: rows, Cols: cols, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSequentialBasics(t *testing.T) {
	tr := genT(t, workload.Sinusoid, 6, 6, 1)
	res, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	if res.K() == 0 {
		t.Fatal("no visible pieces on an open terrain")
	}
	if res.N != tr.NumEdges() {
		t.Fatalf("N=%d want %d", res.N, tr.NumEdges())
	}
	// The front-most edges are unoccluded; at least one must be fully visible.
	if res.VisibleLength() <= 0 {
		t.Fatal("zero visible length")
	}
	if res.Acct.NumPhases() == 0 {
		t.Fatal("no PRAM phases recorded")
	}
}

func TestSequentialMatchesBruteForce(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Fractal, workload.Sinusoid, workload.Ridge, workload.TiltedUp, workload.TiltedDown, workload.Rough, workload.Steps} {
		for seed := int64(0); seed < 3; seed++ {
			tr := genT(t, kind, 5, 5, seed)
			seq, err := prepT(t, tr).Sequential()
			if err != nil {
				t.Fatalf("%s/%d: %v", kind, seed, err)
			}
			bf, err := prepT(t, tr).BruteForce()
			if err != nil {
				t.Fatalf("%s/%d: %v", kind, seed, err)
			}
			if err := Equivalent(seq, bf, 1e-7, 1e-5); err != nil {
				t.Fatalf("%s/%d: %v", kind, seed, err)
			}
		}
	}
}

func TestParallelSimpleMatchesSequential(t *testing.T) {
	for _, kind := range workload.Kinds {
		for _, workers := range []int{1, 4} {
			tr := genT(t, kind, 7, 6, 42)
			seq, err := prepT(t, tr).Sequential()
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			par, err := prepT(t, tr).ParallelSimple(workers)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if err := Equivalent(seq, par, 1e-7, 1e-5); err != nil {
				t.Fatalf("%s workers=%d: %v", kind, workers, err)
			}
		}
	}
}

func TestParallelSimpleLargerTerrainAgainstSequential(t *testing.T) {
	tr := genT(t, workload.Fractal, 16, 16, 7)
	seq, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	par, err := prepT(t, tr).ParallelSimple(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := Equivalent(seq, par, 1e-7, 1e-5); err != nil {
		t.Fatal(err)
	}
	if par.Acct.Depth() >= par.Acct.Work() {
		t.Fatalf("depth %d not below work %d", par.Acct.Depth(), par.Acct.Work())
	}
}

func TestRidgeOcclusionShrinksOutput(t *testing.T) {
	open, err := workload.Generate(workload.Params{Kind: workload.Ridge, Rows: 10, Cols: 10, Seed: 3, RidgeHeight: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	wall, err := workload.Generate(workload.Params{Kind: workload.Ridge, Rows: 10, Cols: 10, Seed: 3, RidgeHeight: 100})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := prepT(t, open).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	rw, err := prepT(t, wall).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	if !(rw.K() < ro.K()/2) {
		t.Fatalf("tall ridge should slash visible pieces: %d vs %d", rw.K(), ro.K())
	}
}

func TestTiltedUpMostlyVisible(t *testing.T) {
	tr := genT(t, workload.TiltedUp, 8, 8, 5)
	res, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	// A terrain rising away from the viewer shows nearly every edge.
	if res.K() < tr.NumEdges()/2 {
		t.Fatalf("expected most of %d edges visible, got %d pieces", tr.NumEdges(), res.K())
	}
}

func TestAllPairsCountsIntersections(t *testing.T) {
	tr := genT(t, workload.Rough, 6, 6, 9)
	ap, err := prepT(t, tr).AllPairs()
	if err != nil {
		t.Fatal(err)
	}
	if ap.IntersectionsI <= 0 {
		t.Fatal("rough terrain should have image-plane crossings")
	}
	want := int64(workload.CountImageCrossings(tr))
	if ap.IntersectionsI != want {
		t.Fatalf("I=%d want %d", ap.IntersectionsI, want)
	}
	// Same visibility as Sequential.
	seq, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	if err := Equivalent(seq, ap, 1e-7, 1e-5); err != nil {
		t.Fatal(err)
	}
	// But strictly more charged work.
	if ap.Work() <= seq.Work() {
		t.Fatalf("AllPairs work %d should exceed Sequential %d", ap.Work(), seq.Work())
	}
}

// prepT prepares tr for a solve, failing the test on error.
func prepT(t testing.TB, tr *terrain.Terrain) *Prepared {
	t.Helper()
	prep, err := Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// TestEmptyTerrainRejected: every algorithm solves a prepared order, and
// preparation rejects a terrain without edges.
func TestEmptyTerrainRejected(t *testing.T) {
	if _, err := Prepare(nil); err == nil {
		t.Fatal("nil terrain should error")
	}
	if _, err := Prepare(&terrain.Terrain{}); err == nil {
		t.Fatal("edgeless terrain should error")
	}
}

func TestVerticalEdgesAccounted(t *testing.T) {
	// A single-row flat grid has edges running along x that project to
	// points/vertical segments; the front ones must be visible.
	tr, err := terrain.Grid{Rows: 1, Cols: 3, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return 1 }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	vertical := 0
	for _, p := range res.Pieces {
		if p.Span.X2 == p.Span.X1 {
			vertical++
		}
	}
	// The along-x edges all project to single points of zero height range
	// here (flat terrain), so none appear; make the terrain non-flat.
	tr2, err := terrain.Grid{Rows: 1, Cols: 3, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return float64(i * 2) }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := prepT(t, tr2).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	vertical2 := 0
	for _, p := range res2.Pieces {
		if p.Span.X2 == p.Span.X1 {
			vertical2++
		}
	}
	if vertical2 == 0 {
		t.Fatal("rising terrain must show vertical (along-view) edges")
	}
	_ = vertical
}

func TestEquivalentDetectsDifference(t *testing.T) {
	tr := genT(t, workload.Fractal, 5, 5, 1)
	a, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	b, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with b.
	if len(b.Pieces) == 0 {
		t.Fatal("need pieces")
	}
	b.Pieces = b.Pieces[:len(b.Pieces)-1]
	if err := Equivalent(a, b, 1e-7, 1e-5); err == nil {
		t.Fatal("Equivalent failed to detect missing piece")
	}
}

func TestSimilarLength(t *testing.T) {
	tr := genT(t, workload.Sinusoid, 5, 5, 2)
	a, _ := prepT(t, tr).Sequential()
	b, _ := prepT(t, tr).ParallelSimple(4)
	if err := SimilarLength(a, b, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestCrossingsArePlausible(t *testing.T) {
	tr := genT(t, workload.Fractal, 8, 8, 13)
	seq, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	// Crossings (image vertices) can't exceed a small multiple of pieces
	// plus edges: each piece boundary is an endpoint or a crossing.
	if seq.Crossings > int64(4*seq.K()+2*seq.N) {
		t.Fatalf("implausible crossing count %d for k=%d n=%d", seq.Crossings, seq.K(), seq.N)
	}
}

func TestVisibleLengthPositiveAndStable(t *testing.T) {
	tr := genT(t, workload.Steps, 6, 6, 21)
	a, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	b, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.VisibleLength()-b.VisibleLength()) > 1e-12 {
		t.Fatal("sequential run not deterministic")
	}
}
