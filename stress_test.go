package terrainhsr

import (
	"testing"

	"terrainhsr/internal/hsr"
	"terrainhsr/internal/workload"
)

// TestStressLargeTerrain runs the full pipeline at ~75k edges and checks
// the parallel solvers against the sequential baseline. Skipped with
// -short.
func TestStressLargeTerrain(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped with -short")
	}
	tr, err := workload.Generate(workload.Params{
		Kind: workload.Fractal, Rows: 158, Cols: 158, Seed: 12, Amplitude: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	prep := mustPrepare(t, tr)
	seq, err := prep.Sequential()
	if err != nil {
		t.Fatal(err)
	}
	par, err := prep.ParallelOS(hsr.OSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := hsr.Equivalent(seq, par, 1e-7, 1e-5); err != nil {
		t.Fatal(err)
	}
	if par.Work() >= seq.Work() {
		t.Fatalf("output-sensitive work %d not below sequential %d at n=%d",
			par.Work(), seq.Work(), tr.NumEdges())
	}
	t.Logf("n=%d k=%d work: parallel=%d sequential=%d",
		tr.NumEdges(), par.K(), par.Work(), seq.Work())
}

// TestStressManySeeds runs moderate terrains across many seeds and kinds,
// comparing parallel to sequential. Skipped with -short.
func TestStressManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped with -short")
	}
	for _, kind := range workload.Kinds {
		for seed := int64(100); seed < 108; seed++ {
			tr, err := workload.Generate(workload.Params{Kind: kind, Rows: 14, Cols: 11, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			prep := mustPrepare(t, tr)
			seq, err := prep.Sequential()
			if err != nil {
				t.Fatalf("%s/%d: %v", kind, seed, err)
			}
			par, err := prep.ParallelOS(hsr.OSOptions{Workers: 6})
			if err != nil {
				t.Fatalf("%s/%d: %v", kind, seed, err)
			}
			if err := hsr.Equivalent(seq, par, 1e-7, 1e-5); err != nil {
				t.Fatalf("%s/%d: %v", kind, seed, err)
			}
		}
	}
}
