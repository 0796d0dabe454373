package hsr

import (
	"testing"

	"terrainhsr/internal/workload"
)

func TestParallelOSMatchesSequentialAllKinds(t *testing.T) {
	for _, kind := range workload.Kinds {
		for _, hulls := range []bool{false, true} {
			for seed := int64(0); seed < 2; seed++ {
				tr := genT(t, kind, 7, 6, seed)
				seq, err := prepT(t, tr).Sequential()
				if err != nil {
					t.Fatalf("%s/%d: %v", kind, seed, err)
				}
				os, err := prepT(t, tr).ParallelOS(OSOptions{Workers: 4, WithHulls: hulls})
				if err != nil {
					t.Fatalf("%s/%d: %v", kind, seed, err)
				}
				if err := Equivalent(seq, os, 1e-7, 1e-5); err != nil {
					t.Fatalf("%s/%d hulls=%v: %v", kind, seed, hulls, err)
				}
			}
		}
	}
}

func TestParallelOSLargerFractal(t *testing.T) {
	tr := genT(t, workload.Fractal, 16, 16, 21)
	seq, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	for _, hulls := range []bool{false, true} {
		os, err := prepT(t, tr).ParallelOS(OSOptions{Workers: 8, WithHulls: hulls})
		if err != nil {
			t.Fatal(err)
		}
		if err := Equivalent(seq, os, 1e-7, 1e-5); err != nil {
			t.Fatalf("hulls=%v: %v", hulls, err)
		}
	}
}

func TestParallelOSWorkerCountsAgree(t *testing.T) {
	tr := genT(t, workload.Rough, 10, 10, 3)
	var results []*Result
	for _, w := range []int{1, 2, 8} {
		r, err := prepT(t, tr).ParallelOS(OSOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	for i := 1; i < len(results); i++ {
		if err := Equivalent(results[0], results[i], 1e-9, 1e-7); err != nil {
			t.Fatalf("worker counts disagree: %v", err)
		}
	}
}

func TestParallelOSOutputSensitiveWork(t *testing.T) {
	// On a heavily occluded scene the output-sensitive algorithm must do
	// far less merge work than the copying parallelization.
	occluded, err := workload.Generate(workload.Params{
		Kind: workload.Ridge, Rows: 24, Cols: 24, Seed: 5, RidgeHeight: 500, Amplitude: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	os, err := prepT(t, occluded).ParallelOS(OSOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	simple, err := prepT(t, occluded).ParallelSimple(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Equivalent(os, simple, 1e-7, 1e-5); err != nil {
		t.Fatal(err)
	}
	// Phase-2 allocation (new persistent nodes) must be far below the
	// pieces the copying variant materializes.
	var osAlloc, simpleAlloc int64
	for _, st := range os.Phase2 {
		osAlloc += st.PrefixPiecesAllocated
	}
	for _, st := range simple.Phase2 {
		simpleAlloc += st.PrefixPiecesAllocated
	}
	if osAlloc == 0 || simpleAlloc == 0 {
		t.Fatalf("missing allocation stats: %d %d", osAlloc, simpleAlloc)
	}
	if osAlloc*2 > simpleAlloc {
		t.Fatalf("persistence advantage missing: OS allocated %d vs simple %d", osAlloc, simpleAlloc)
	}
}

func TestParallelOSCrossingsMatchSequential(t *testing.T) {
	// Both algorithms discover the same visible scene; their crossing
	// totals (image vertex events) should agree to within the events
	// attributable to span endpoints.
	tr := genT(t, workload.Fractal, 10, 10, 8)
	seq, err := prepT(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	os, err := prepT(t, tr).ParallelOS(OSOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.K() != os.K() {
		t.Fatalf("piece counts differ: %d vs %d", seq.K(), os.K())
	}
}

func TestParallelOSEmptyTerrain(t *testing.T) {
	var a PrepareArena
	if _, err := a.Prepare(nil); err == nil {
		t.Fatal("nil terrain should error")
	}
}

func TestParallelOSAccountingSane(t *testing.T) {
	tr := genT(t, workload.Sinusoid, 12, 12, 2)
	os, err := prepT(t, tr).ParallelOS(OSOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if os.Acct.NumPhases() == 0 {
		t.Fatal("no PRAM phases")
	}
	if os.Acct.Depth() >= os.Acct.Work() {
		t.Fatalf("depth %d not below work %d", os.Acct.Depth(), os.Acct.Work())
	}
	if os.Counters.TreeAllocs == 0 {
		t.Fatal("no persistent allocations recorded")
	}
	// Brent time at p=1 must be at least the work; more processors never
	// hurt.
	if os.Acct.TimeOn(1) < float64(os.Acct.Work()) {
		t.Fatal("TimeOn(1) below work")
	}
	if os.Acct.TimeOn(16) > os.Acct.TimeOn(1) {
		t.Fatal("more processors slowed the PRAM down")
	}
}
