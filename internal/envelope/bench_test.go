package envelope

import (
	"fmt"
	"math/rand"
	"testing"

	"terrainhsr/internal/geom"
)

func benchSegs(n int, seed int64) []geom.Seg2 {
	r := rand.New(rand.NewSource(seed))
	segs := make([]geom.Seg2, n)
	for i := range segs {
		x1 := r.Float64() * 1000
		segs[i] = geom.S2(x1, r.Float64()*100, x1+1+r.Float64()*60, r.Float64()*100)
	}
	return segs
}

func BenchmarkBuildUpperEnvelope(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14} {
		segs := benchSegs(n, 1)
		b.Run(fmt.Sprintf("m=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				none.BuildUpperEnvelope(segs, 0)
			}
		})
	}
}

func BenchmarkMerge(b *testing.B) {
	a := none.BuildUpperEnvelope(benchSegs(1<<12, 1), 0)
	c := none.BuildUpperEnvelope(benchSegs(1<<12, 2), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		none.Merge(a, c)
	}
}

// BenchmarkMergeInto is BenchmarkMerge into one reused buffer, the way the
// tile band barrier merges each band into the front: no allocation once the
// buffer has grown.
func BenchmarkMergeInto(b *testing.B) {
	a := none.BuildUpperEnvelope(benchSegs(1<<12, 1), 0)
	c := none.BuildUpperEnvelope(benchSegs(1<<12, 2), 0)
	var dst Profile
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = none.MergeStatsInto(dst, a, c)
	}
}

func BenchmarkClipAbove(b *testing.B) {
	p := none.BuildUpperEnvelope(benchSegs(1<<12, 3), 0)
	queries := benchSegs(256, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		none.ClipAbove(queries[i%len(queries)], NoEdge, p)
	}
}

func BenchmarkEval(b *testing.B) {
	p := none.BuildUpperEnvelope(benchSegs(1<<14, 5), 0)
	lo, hi, _ := p.XRange()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Eval(lo+(hi-lo)*float64(i%1000)/1000, none)
	}
}
