// Benchmarks mirroring the paper tables of cmd/hsrbench (ALGORITHM.md's
// experiment index lists them). The names predate the table ids: T1–T5
// are TH1–TH5, L1/L6 are LM1/LM6 and F1–F3 are FG1–FG3. Custom metrics
// report the quantities the paper's claims are about (PRAM depth, charged
// work, output size k) alongside wall-clock; internal/hsr's TestClaim*
// tests assert their shapes.
//
// Run:
//
//	go test -bench=. -benchmem
package terrainhsr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"terrainhsr/internal/cg"
	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/pct"
	"terrainhsr/internal/persist"
	"terrainhsr/internal/pram"
	"terrainhsr/internal/profiletree"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/workload"
)

func benchTerrain(b *testing.B, kind workload.Kind, rc int, seed int64) *terrain.Terrain {
	b.Helper()
	t, err := workload.Generate(workload.Params{Kind: kind, Rows: rc, Cols: rc, Seed: seed, Amplitude: 5})
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// mustPrepare prepares t's depth order or fails; the benchmarks call it
// inside their timed loops, as cmd/hsrbench times preparation with each
// solve.
func mustPrepare(tb testing.TB, t *terrain.Terrain) *hsr.Prepared {
	tb.Helper()
	p, err := hsr.Prepare(t)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkT1_Depth measures the paper's parallel-time claim (Theorem 3.1,
// O(log^4 n) depth): reported metric depth/log2(n)^3 should stay bounded as
// n grows across sub-benchmarks.
func BenchmarkT1_Depth(b *testing.B) {
	for _, rc := range []int{16, 32, 64, 128} {
		t := benchTerrain(b, workload.Fractal, rc, 1)
		b.Run(fmt.Sprintf("n=%d", t.NumEdges()), func(b *testing.B) {
			var depth int64
			for i := 0; i < b.N; i++ {
				r, err := mustPrepare(b, t).ParallelOS(hsr.OSOptions{})
				if err != nil {
					b.Fatal(err)
				}
				depth = r.Acct.Depth()
			}
			n := float64(t.NumEdges())
			b.ReportMetric(float64(depth), "depth")
			b.ReportMetric(float64(depth)/math.Pow(math.Log2(n), 3), "depth/log³n")
		})
	}
}

// BenchmarkT2_Work measures the work bound (Theorem 3.1, O((n+k) polylog)):
// reported metric work/(n+k) should grow at most polylogarithmically.
func BenchmarkT2_Work(b *testing.B) {
	for _, rc := range []int{16, 32, 64, 128} {
		t := benchTerrain(b, workload.Fractal, rc, 1)
		b.Run(fmt.Sprintf("n=%d", t.NumEdges()), func(b *testing.B) {
			var work int64
			var k int
			for i := 0; i < b.N; i++ {
				r, err := mustPrepare(b, t).ParallelOS(hsr.OSOptions{})
				if err != nil {
					b.Fatal(err)
				}
				work, k = r.Work(), r.K()
			}
			b.ReportMetric(float64(work), "work")
			b.ReportMetric(float64(work)/float64(t.NumEdges()+k), "work/(n+k)")
			b.ReportMetric(float64(k), "k")
		})
	}
}

// BenchmarkT3_OutputSensitivity sweeps occlusion at fixed n: work must fall
// with k while the crossing count I (and any I-sensitive algorithm's cost)
// stays high.
func BenchmarkT3_OutputSensitivity(b *testing.B) {
	for _, h := range []float64{0.5, 4, 32} {
		t, err := workload.Generate(workload.Params{
			Kind: workload.Ridge, Rows: 32, Cols: 32, Seed: 3, Amplitude: 4, RidgeHeight: h,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ridge=%g", h), func(b *testing.B) {
			var work int64
			var k int
			for i := 0; i < b.N; i++ {
				r, err := mustPrepare(b, t).ParallelOS(hsr.OSOptions{})
				if err != nil {
					b.Fatal(err)
				}
				work, k = r.Work(), r.K()
			}
			b.ReportMetric(float64(k), "k")
			b.ReportMetric(float64(work), "work")
		})
	}
}

// BenchmarkT4_Speedup measures wall-clock strong scaling of the parallel
// algorithm over worker counts (the physical counterpart of Lemma 2.1).
func BenchmarkT4_Speedup(b *testing.B) {
	t := benchTerrain(b, workload.Fractal, 96, 5)
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mustPrepare(b, t).ParallelOS(hsr.OSOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkT5_VsSequential compares the parallel algorithm's cost to the
// sequential Reif-Sen baseline on the same inputs (the remark after
// Theorem 3.1).
func BenchmarkT5_VsSequential(b *testing.B) {
	t := benchTerrain(b, workload.Fractal, 64, 1)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mustPrepare(b, t).Sequential(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mustPrepare(b, t).SequentialTree(false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-os", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mustPrepare(b, t).ParallelOS(hsr.OSOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkL1_ProfileBuild measures Lemma 3.1: upper-envelope construction
// by parallel divide and conquer, work near m log m.
func BenchmarkL1_ProfileBuild(b *testing.B) {
	for _, m := range []int{1 << 10, 1 << 13, 1 << 16} {
		r := rand.New(rand.NewSource(2))
		segs := make([]geom.Seg2, m)
		for i := range segs {
			x1 := r.Float64() * 1000
			segs[i] = geom.S2(x1, r.Float64()*100, x1+1+r.Float64()*80, r.Float64()*100)
		}
		ids := make([]int32, m)
		for i := range ids {
			ids[i] = int32(i)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var work int64
			for i := 0; i < b.N; i++ {
				var acct pram.Accounting
				tree := pct.New(segs, ids)
				tree.BuildPhase1(0, &acct)
				work = acct.Work()
			}
			b.ReportMetric(float64(work)/(float64(m)*math.Log2(float64(m))), "work/(m·logm)")
		})
	}
}

// BenchmarkL6_IntersectionQuery measures Lemmas 3.2/3.6: crossing queries
// against a profile, per query, in both pruning modes.
func BenchmarkL6_IntersectionQuery(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	const m = 1 << 14
	segs := make([]geom.Seg2, m)
	for i := range segs {
		x1 := r.Float64() * 1000
		segs[i] = geom.S2(x1, r.Float64()*100, x1+1+r.Float64()*80, r.Float64()*100)
	}
	prof := envelope.Edges(nil).BuildUpperEnvelope(segs, 0)
	lo, hi, _ := prof.XRange()
	queries := make([]geom.Seg2, 512)
	for i := range queries {
		x := lo + r.Float64()*(hi-lo)*0.5
		queries[i] = geom.S2(x, r.Float64()*100, x+(hi-lo)*0.3, r.Float64()*100)
	}
	for _, hulls := range []bool{false, true} {
		name := "summary"
		if hulls {
			name = "hulls"
		}
		o := profiletree.NewOps(persist.NewArena(1), hulls)
		tr := o.FromProfile(prof)
		b.Run(name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				_, st := cg.QueryRelations(o, tr, queries[i%len(queries)], envelope.NoEdge)
				steps += st.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/query")
		})
	}
}

// BenchmarkF1_Sharing reports the Figure 1 sharing factor: how many profile
// pieces the PCT layers would hold as copies versus the freshly allocated
// material under persistence.
func BenchmarkF1_Sharing(b *testing.B) {
	t := benchTerrain(b, workload.Fractal, 64, 1)
	var held, alloc int64
	for i := 0; i < b.N; i++ {
		r, err := mustPrepare(b, t).ParallelOS(hsr.OSOptions{})
		if err != nil {
			b.Fatal(err)
		}
		held, alloc = 0, 0
		for _, st := range r.Phase2 {
			held += st.PrefixPiecesHeld
			alloc += st.PrefixPiecesAllocated
		}
	}
	b.ReportMetric(float64(held)/math.Max(float64(alloc), 1), "sharing-factor")
}

// BenchmarkF2_CGStructure builds the hull-augmented search structure over a
// profile (Figure 2 / Lemma 3.5) and reports its construction cost.
func BenchmarkF2_CGStructure(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	for _, m := range []int{1 << 10, 1 << 13} {
		segs := make([]geom.Seg2, m)
		for i := range segs {
			x1 := r.Float64() * 1000
			segs[i] = geom.S2(x1, r.Float64()*100, x1+1+r.Float64()*80, r.Float64()*100)
		}
		prof := envelope.Edges(nil).BuildUpperEnvelope(segs, 0)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var allocs int64
			for i := 0; i < b.N; i++ {
				arena := persist.NewArena(uint64(i) + 1)
				o := profiletree.NewOps(arena, true)
				o.FromProfile(prof)
				allocs = arena.Allocs
			}
			b.ReportMetric(float64(allocs)/float64(len(prof)), "nodes/piece")
		})
	}
}

// BenchmarkF3_Persistence contrasts persistent phase-2 storage with the
// copying variant (Figure 3): allocations per visible output piece.
func BenchmarkF3_Persistence(b *testing.B) {
	t := benchTerrain(b, workload.Fractal, 48, 1)
	b.Run("persistent", func(b *testing.B) {
		var allocs int64
		var k int
		for i := 0; i < b.N; i++ {
			r, err := mustPrepare(b, t).ParallelOS(hsr.OSOptions{})
			if err != nil {
				b.Fatal(err)
			}
			allocs, k = r.Counters.TreeAllocs, r.K()
		}
		b.ReportMetric(float64(allocs)/float64(k), "allocs/k")
	})
	b.Run("copying", func(b *testing.B) {
		var copied int64
		var k int
		for i := 0; i < b.N; i++ {
			r, err := mustPrepare(b, t).ParallelSimple(0)
			if err != nil {
				b.Fatal(err)
			}
			copied = 0
			for _, st := range r.Phase2 {
				copied += st.PrefixPiecesAllocated
			}
			k = r.K()
		}
		b.ReportMetric(float64(copied)/float64(k), "allocs/k")
	})
}

// BenchmarkA1_NoPersistence is the persistence ablation on a fully visible
// terrain, where the copying phase 2 degenerates toward Theta(n*k) work.
func BenchmarkA1_NoPersistence(b *testing.B) {
	t, err := workload.Generate(workload.Params{Kind: workload.TiltedUp, Rows: 48, Cols: 48, Seed: 2, Slope: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("persistent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mustPrepare(b, t).ParallelOS(hsr.OSOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("copying", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mustPrepare(b, t).ParallelSimple(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkA2_NoHulls is the ACG ablation: the paper's exact hull pruning
// versus O(1) summaries, end to end.
func BenchmarkA2_NoHulls(b *testing.B) {
	t := benchTerrain(b, workload.Fractal, 48, 6)
	for _, hulls := range []bool{false, true} {
		name := "summary"
		if hulls {
			name = "hulls"
		}
		b.Run(name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				r, err := mustPrepare(b, t).ParallelOS(hsr.OSOptions{WithHulls: hulls})
				if err != nil {
					b.Fatal(err)
				}
				steps = r.Counters.QuerySteps
			}
			b.ReportMetric(float64(steps), "query-steps")
		})
	}
}

// BenchmarkSolvePublicAPI exercises the exported entry point end to end.
func BenchmarkSolvePublicAPI(b *testing.B) {
	tr, err := Generate(GenParams{Kind: "fractal", Rows: 48, Cols: 48, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := Solve(tr, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
