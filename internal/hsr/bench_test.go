package hsr

import (
	"strconv"
	"testing"

	"terrainhsr/internal/workload"
)

var benchSink *Result

// BenchmarkParallelOSPooled is the kernel's layer benchmark: a pooled
// summary-mode ParallelOS solve of a 48×48 fractal, the per-tile shape of
// the serving path. Run it with -benchmem: after the first solve the pool
// holds the node slabs and query scratch, so allocs/op is what a steady
// stream of solves pays.
func BenchmarkParallelOSPooled(b *testing.B) {
	tr, err := workload.Generate(workload.Params{Kind: workload.Fractal, Rows: 48, Cols: 48, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	prep, err := Prepare(tr)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			opt := OSOptions{Workers: workers}
			if _, err := prep.ParallelOS(opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := prep.ParallelOS(opt)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = r
			}
		})
	}
}
