package hsr

import (
	"math"
	"testing"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/workload"
)

// Degenerate and adversarial inputs: every solver must either handle them
// or reject them cleanly — never panic, never disagree silently.

func solveAllAndCompare(t *testing.T, tr *terrain.Terrain, label string) {
	t.Helper()
	seq, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatalf("%s: sequential: %v", label, err)
	}
	for _, f := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"simple", func() (*Result, error) { return prepT(t, tr).ParallelSimple(4) }},
		{"os", func() (*Result, error) { return prepT(t, tr).ParallelOS(OSOptions{Workers: 4}) }},
		{"os-hulls", func() (*Result, error) { return prepT(t, tr).ParallelOS(OSOptions{Workers: 4, WithHulls: true}) }},
	} {
		res, err := f.run()
		if err != nil {
			t.Fatalf("%s/%s: %v", label, f.name, err)
		}
		if err := SimilarLength(seq, res, 1e-6); err != nil {
			t.Fatalf("%s/%s: %v", label, f.name, err)
		}
	}
}

func TestFlatTerrainAllTies(t *testing.T) {
	tr, err := terrain.Grid{Rows: 6, Cols: 6, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return 5 }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	solveAllAndCompare(t, tr, "flat")
}

func TestSingleCellTerrain(t *testing.T) {
	tr, err := terrain.Grid{Rows: 1, Cols: 1, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return float64(i + j) }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	solveAllAndCompare(t, tr, "single-cell")
}

func TestStripTerrains(t *testing.T) {
	// One-row and one-column strips exercise minimal PCT shapes.
	row, err := terrain.Grid{Rows: 1, Cols: 12, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return math.Sin(float64(j)) }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	solveAllAndCompare(t, row, "row-strip")
	col, err := terrain.Grid{Rows: 12, Cols: 1, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return math.Cos(float64(i)) }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	solveAllAndCompare(t, col, "col-strip")
}

func TestNeedleTerrain(t *testing.T) {
	// One extreme spike: huge dynamic range in z.
	tr, err := terrain.Grid{Rows: 8, Cols: 8, Dx: 1, Dy: 1,
		H: func(i, j int) float64 {
			if i == 4 && j == 4 {
				return 1e6
			}
			return float64((i*3+j)%4) * 0.25
		}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	solveAllAndCompare(t, tr, "needle")
}

func TestPlaneTerrainEverythingCollinear(t *testing.T) {
	// A perfect plane: every edge lies on one line family; massive
	// collinearity stress for hulls and merges.
	tr, err := terrain.Grid{Rows: 7, Cols: 7, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return 0.5*float64(i) + 0.25*float64(j) }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	solveAllAndCompare(t, tr, "plane")
}

func TestTinyFeatureScale(t *testing.T) {
	// Heights many orders of magnitude below the grid spacing.
	tr, err := terrain.Grid{Rows: 6, Cols: 6, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return 1e-4 * float64((i*5+j*7)%11) }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	solveAllAndCompare(t, tr, "tiny-relief")
}

func TestLargeCoordinateOffsets(t *testing.T) {
	// The terrain sits far from the origin; relative predicates must hold.
	base, err := workload.Generate(workload.Params{Kind: workload.Fractal, Rows: 8, Cols: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := base.Transform(func(p geomPt3) (geomPt3, error) {
		p.X += 1e5
		p.Y += 2e5
		p.Z += 3e5
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	solveAllAndCompare(t, shifted, "offset")
}

func TestDeepOcclusionStack(t *testing.T) {
	// Monotonically descending terrain: the first row hides everything.
	tr, err := workload.Generate(workload.Params{
		Kind: workload.TiltedDown, Rows: 16, Cols: 8, Seed: 5, Slope: 2, Amplitude: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	// Output must be tiny compared to n.
	if seq.K() > tr.NumEdges()/4 {
		t.Fatalf("descending terrain should be mostly hidden: k=%d n=%d", seq.K(), tr.NumEdges())
	}
	solveAllAndCompare(t, tr, "descending")
}

// geomPt3 aliases the geometry point for the transform-based tests.
type geomPt3 = geom.Pt3
