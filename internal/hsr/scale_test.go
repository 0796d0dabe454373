package hsr

import (
	"fmt"
	"testing"
	"time"

	"terrainhsr/internal/workload"
)

func TestScaleSmoke(t *testing.T) {
	for _, rc := range []int{40, 80} {
		tr, err := workload.Generate(workload.Params{Kind: workload.Fractal, Rows: rc, Cols: rc, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		seq, _ := prepT(t, tr).Sequential()
		tSeq := time.Since(t0)
		t0 = time.Now()
		os, _ := prepT(t, tr).ParallelOS(OSOptions{Workers: 8})
		tOS := time.Since(t0)
		t0 = time.Now()
		osH, _ := prepT(t, tr).ParallelOS(OSOptions{Workers: 8, WithHulls: true})
		tOSH := time.Since(t0)
		if err := Equivalent(seq, os, 1e-7, 1e-5); err != nil {
			t.Fatalf("rc=%d: %v", rc, err)
		}
		if err := Equivalent(seq, osH, 1e-7, 1e-5); err != nil {
			t.Fatalf("rc=%d hulls: %v", rc, err)
		}
		fmt.Printf("n=%6d k=%6d  seq=%8v  os=%8v  osHulls=%8v  osWork=%d seqWork=%d allocs=%d\n",
			tr.NumEdges(), seq.K(), tSeq, tOS, tOSH, os.Work(), seq.Work(), os.Counters.TreeAllocs)
	}
}
