package hsr

import (
	"slices"
	"testing"

	"terrainhsr/internal/terrain"
	"terrainhsr/internal/workload"
)

func TestSequentialTreeMatchesSequential(t *testing.T) {
	for _, kind := range workload.Kinds {
		for _, hulls := range []bool{false, true} {
			tr := genT(t, kind, 8, 7, 11)
			slow, err := prepT(t, tr).Sequential()
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			fast, err := prepT(t, tr).SequentialTree(hulls)
			if err != nil {
				t.Fatalf("%s hulls=%v: %v", kind, hulls, err)
			}
			if err := Equivalent(slow, fast, 1e-7, 1e-5); err != nil {
				t.Fatalf("%s hulls=%v: %v", kind, hulls, err)
			}
		}
	}
}

func TestSequentialTreeOutputSensitiveWork(t *testing.T) {
	// On a larger terrain the tree-backed sweep must beat the flat sweep's
	// charged work (O((n+k) polylog) vs O(n * profile)).
	tr := genT(t, workload.Fractal, 40, 40, 3)
	slow, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := prepT(t, tr).SequentialTree(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := Equivalent(slow, fast, 1e-7, 1e-5); err != nil {
		t.Fatal(err)
	}
	if fast.Work() >= slow.Work() {
		t.Fatalf("tree-backed sequential work %d not below flat %d", fast.Work(), slow.Work())
	}
}

func TestSequentialTreeOracle(t *testing.T) {
	tr := genT(t, workload.Steps, 9, 9, 21)
	res, err := prepT(t, tr).SequentialTree(false)
	if err != nil {
		t.Fatal(err)
	}
	ys := []float64{1.3, 2.7, 4.1, 5.9, 7.35, 8.2}
	if err := OracleCheck(tr, res, ys, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialTreeEmpty(t *testing.T) {
	var a PrepareArena
	if _, err := a.Prepare(genT(t, workload.Fractal, 4, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Prepare(&terrain.Terrain{}); err == nil {
		t.Fatal("a used arena prepared an edgeless terrain")
	}
}

// TestSequentialTreePiecesOwnStorage checks that a sweep returns its pieces
// in an exact-size slice of their own: a later sweep, which reuses the
// pooled piece buffer, leaves an earlier result's pieces untouched.
func TestSequentialTreePiecesOwnStorage(t *testing.T) {
	first, err := prepT(t, genT(t, workload.Fractal, 16, 16, 2)).SequentialTree(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Pieces) == 0 || cap(first.Pieces) != len(first.Pieces) {
		t.Fatalf("%d pieces in a slice of capacity %d, want exact size", len(first.Pieces), cap(first.Pieces))
	}
	want := slices.Clone(first.Pieces)
	for seed := int64(3); seed < 6; seed++ {
		if _, err := prepT(t, genT(t, workload.Massive, 16, 16, seed)).SequentialTree(false); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(first.Pieces, want) {
		t.Fatal("a later sweep rewrote an earlier result's pieces")
	}
}
