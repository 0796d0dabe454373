package hsr

import (
	"math/rand"
	"testing"

	"terrainhsr/internal/workload"
)

func sampleColumns(r *rand.Rand, tr interface{ NumEdges() int }, cols int, n int) []float64 {
	ys := make([]float64, n)
	for i := range ys {
		// Stay inside the sheared domain and away from integer grid lines.
		ys[i] = 0.3 + r.Float64()*(float64(cols)-0.6)
	}
	return ys
}

// Every solver must agree with the first-principles ray oracle.
func TestOracleAllSolvers(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, kind := range workload.Kinds {
		tr, err := workload.Generate(workload.Params{Kind: kind, Rows: 9, Cols: 9, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		ys := sampleColumns(r, tr, 9, 80)
		solvers := map[string]func() (*Result, error){
			"sequential": func() (*Result, error) { return prepT(t, tr).Sequential() },
			"bruteforce": func() (*Result, error) { return prepT(t, tr).BruteForce() },
			"simple":     func() (*Result, error) { return prepT(t, tr).ParallelSimple(4) },
			"os":         func() (*Result, error) { return prepT(t, tr).ParallelOS(OSOptions{Workers: 4}) },
			"os-hulls":   func() (*Result, error) { return prepT(t, tr).ParallelOS(OSOptions{Workers: 4, WithHulls: true}) },
		}
		for name, run := range solvers {
			res, err := run()
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, name, err)
			}
			if err := OracleCheck(tr, res, ys, 1e-6); err != nil {
				t.Fatalf("%s/%s: %v", kind, name, err)
			}
		}
	}
}

// The oracle itself must catch a corrupted result.
func TestOracleDetectsCorruption(t *testing.T) {
	tr, err := workload.Generate(workload.Params{Kind: workload.Fractal, Rows: 8, Cols: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pieces) < 4 {
		t.Fatal("need pieces to corrupt")
	}
	// Drop half the pieces: some visible edge must now be missing.
	res.Pieces = res.Pieces[:len(res.Pieces)/2]
	r := rand.New(rand.NewSource(5))
	ys := sampleColumns(r, tr, 8, 200)
	if err := OracleCheck(tr, res, ys, 1e-6); err == nil {
		t.Fatal("oracle failed to detect dropped pieces")
	}
}

// Larger randomized oracle sweep on the flagship solver.
func TestOracleParallelOSRandomTerrains(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		rows, cols := 6+r.Intn(10), 6+r.Intn(10)
		kind := workload.Kinds[trial%len(workload.Kinds)]
		tr, err := workload.Generate(workload.Params{
			Kind: kind, Rows: rows, Cols: cols, Seed: int64(trial) * 131,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := prepT(t, tr).ParallelOS(OSOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		ys := sampleColumns(r, tr, cols, 120)
		if err := OracleCheck(tr, res, ys, 1e-6); err != nil {
			t.Fatalf("trial %d (%s %dx%d): %v", trial, kind, rows, cols, err)
		}
	}
}
