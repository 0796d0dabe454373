package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/metrics"
	"terrainhsr/internal/pct"
	"terrainhsr/internal/persist"
	"terrainhsr/internal/pram"
	"terrainhsr/internal/profiletree"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/workload"

	"terrainhsr/internal/cg"
)

// gen builds a terrain or dies; all experiments are deterministic.
func gen(p workload.Params) *terrain.Terrain {
	t, err := workload.Generate(p)
	if err != nil {
		log.Fatalf("hsrbench: generate %+v: %v", p, err)
	}
	return t
}

func mustOS(t *terrain.Terrain, workers int, hulls bool) *hsr.Result {
	r, err := hsr.ParallelOS(t, hsr.OSOptions{Workers: workers, WithHulls: hulls})
	if err != nil {
		log.Fatalf("hsrbench: ParallelOS: %v", err)
	}
	return r
}

func mustSeq(t *terrain.Terrain) *hsr.Result {
	r, err := hsr.Sequential(t)
	if err != nil {
		log.Fatalf("hsrbench: Sequential: %v", err)
	}
	return r
}

func log2(x float64) float64 { return math.Log2(x) }

func sizesFor(quick bool) []int {
	if quick {
		return []int{16, 24, 32}
	}
	return []int{16, 24, 32, 48, 64, 96, 128}
}

// expTH1: PRAM depth vs n. The paper claims O(log^4 n) time on a CREW PRAM.
// The table splits the measured depth (critical path of charged operations)
// between Phase 1, whose envelope merges below 4,096 pieces are charged as
// one sequential sweep and so grow like n^0.6 at these sizes, and Phase 2,
// the polylog term: its depth / log^3(n) settles near a constant.
func expTH1(quick bool) {
	tb := metrics.NewTable("rows", "n", "k", "phases", "depth", "phase-1", "phase-2", "phase-2/log2(n)^3")
	for _, rc := range sizesFor(quick) {
		t := gen(workload.Params{Kind: workload.Fractal, Rows: rc, Cols: rc, Seed: 1, Amplitude: 5})
		r := mustOS(t, 0, false)
		var d1 int64
		for _, ph := range r.Acct.Phases() {
			if strings.HasPrefix(ph.Name, "phase1/") {
				d1 += ph.MaxTaskCost
			}
		}
		d2 := r.Acct.Depth() - d1
		tb.AddRow(rc, t.NumEdges(), r.K(), r.Acct.NumPhases(), r.Acct.Depth(), d1, d2,
			float64(d2)/math.Pow(log2(float64(t.NumEdges())), 3))
	}
	tb.Render(os.Stdout)
}

// expTH2: work vs (n+k) polylog n. Theorem 3.1's bound with p = n*alpha/log n
// processors is O((n+k) log^3 n) work; we report work normalized by
// (n+k)*log(n) and (n+k)*log^3(n) — a bounded (non-growing) first column
// already implies output-sensitive near-linear work.
func expTH2(quick bool) {
	tb := metrics.NewTable("rows", "n", "k", "work", "work/(n+k)", "work/((n+k)log2 n)", "work/((n+k)log2^3 n)")
	for _, rc := range sizesFor(quick) {
		t := gen(workload.Params{Kind: workload.Fractal, Rows: rc, Cols: rc, Seed: 1, Amplitude: 5})
		r := mustOS(t, 0, false)
		n := float64(t.NumEdges())
		nk := n + float64(r.K())
		w := float64(r.Work())
		tb.AddRow(rc, t.NumEdges(), r.K(), r.Work(), w/nk, w/(nk*log2(n)), w/(nk*math.Pow(log2(n), 3)))
	}
	tb.Render(os.Stdout)
}

// expTH3: output sensitivity. Fix n; sweep the ridge height so that the
// visible output k collapses while the pairwise crossing count I stays
// high. The paper's algorithm's work must track k; the AllPairs baseline
// (the general-scene, intersection-sensitive approach) pays n^2 + I
// regardless.
func expTH3(quick bool) {
	rc := 32
	if quick {
		rc = 20
	}
	tb := metrics.NewTable("ridge-height", "n", "k", "I", "work-OS", "work-AllPairs", "allpairs/OS")
	for _, h := range []float64{0.5, 2, 4, 8, 16, 32} {
		t := gen(workload.Params{Kind: workload.Ridge, Rows: rc, Cols: rc, Seed: 3, Amplitude: 4, RidgeHeight: h})
		r := mustOS(t, 0, false)
		ap, err := hsr.AllPairs(t)
		if err != nil {
			log.Fatal(err)
		}
		tb.AddRow(h, t.NumEdges(), r.K(), ap.IntersectionsI, r.Work(), ap.Work(),
			float64(ap.Work())/float64(r.Work()))
	}
	tb.Render(os.Stdout)
}

// expTH4: Brent speedup. One fixed terrain; the PRAM model time for
// p = 1..1024 (Lemma 2.1 with the paper's allocation charge) plus measured
// wall-clock for real worker counts.
func expTH4(quick bool) {
	rc := 96
	if quick {
		rc = 40
	}
	t := gen(workload.Params{Kind: workload.Fractal, Rows: rc, Cols: rc, Seed: 5, Amplitude: 6})
	r := mustOS(t, 0, false)
	tb := metrics.NewTable("p", "PRAM T_p (ops)", "speedup", "efficiency")
	t1 := r.Acct.TimeOn(1)
	for p := 1; p <= 1024; p *= 4 {
		tp := r.Acct.TimeOn(p)
		tb.AddRow(p, fmt.Sprintf("%.0f", tp), t1/tp, t1/tp/float64(p))
	}
	tb.Render(os.Stdout)

	fmt.Println()
	tw := metrics.NewTable("workers", "wall-clock", "speedup")
	var base time.Duration
	maxW := runtime.GOMAXPROCS(0)
	for p := 1; p <= maxW; p *= 2 {
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			mustOS(t, p, false)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		if p == 1 {
			base = best
		}
		tw.AddRow(p, best.Round(time.Microsecond).String(), float64(base)/float64(best))
	}
	tw.Render(os.Stdout)
}

// expTH5: the remark after Theorem 3.1 — the parallel algorithm's work is
// within a polylog factor of the sequential algorithm. We report the ratio
// of charged work (and of wall-clock) over a size sweep.
func expTH5(quick bool) {
	tb := metrics.NewTable("rows", "n", "k", "work-par", "work-seqtree", "par/seqtree", "work-seqflat", "wall-par", "wall-seqtree")
	for _, rc := range sizesFor(quick) {
		t := gen(workload.Params{Kind: workload.Fractal, Rows: rc, Cols: rc, Seed: 1, Amplitude: 5})
		start := time.Now()
		r := mustOS(t, 0, false)
		wallPar := time.Since(start)
		start = time.Now()
		st, err := hsr.SequentialTree(t, false)
		if err != nil {
			log.Fatal(err)
		}
		wallSeqTree := time.Since(start)
		s := mustSeq(t)
		tb.AddRow(rc, t.NumEdges(), r.K(), r.Work(), st.Work(),
			float64(r.Work())/float64(st.Work()), s.Work(),
			wallPar.Round(time.Microsecond).String(), wallSeqTree.Round(time.Microsecond).String())
	}
	tb.Render(os.Stdout)
}

// expLM1: Lemma 3.1 — the profile of m segments by divide and conquer.
// Work should be O(m alpha(m) log m); depth O(log^2 m).
func expLM1(quick bool) {
	sizes := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	if quick {
		sizes = []int{1 << 10, 1 << 12}
	}
	tb := metrics.NewTable("m", "envelope-size", "work", "work/(m log2 m)", "depth", "depth/log2(m)^2")
	r := rand.New(rand.NewSource(2))
	for _, m := range sizes {
		segs := make([]geom.Seg2, m)
		for i := range segs {
			x1 := r.Float64() * 1000
			segs[i] = geom.S2(x1, r.Float64()*100, x1+1+r.Float64()*80, r.Float64()*100)
		}
		ids := make([]int32, m)
		for i := range ids {
			ids[i] = int32(i)
		}
		var acct pram.Accounting
		tree := pct.New(segs, ids)
		tree.BuildPhase1(0, &acct)
		work := float64(acct.Work())
		depth := float64(acct.Depth())
		mf := float64(m)
		tb.AddRow(m, tree.Root().Size(), acct.Work(), work/(mf*log2(mf)), acct.Depth(), depth/math.Pow(log2(mf), 2))
	}
	tb.Render(os.Stdout)
}

// expLM6: Lemma 3.6 — detecting the intersections of a segment with a
// profile. Queries with no crossings should cost O(polylog); queries with
// k_s crossings should cost O((1 + k_s) polylog).
func expLM6(quick bool) {
	sizes := []int{1 << 10, 1 << 12, 1 << 14}
	if quick {
		sizes = []int{1 << 10, 1 << 12}
	}
	r := rand.New(rand.NewSource(7))
	tb := metrics.NewTable("m", "mode", "avg-steps(k_s=0)", "steps/log2(m)^2", "avg-steps-per-crossing")
	for _, m := range sizes {
		segs := make([]geom.Seg2, m)
		for i := range segs {
			x1 := r.Float64() * 1000
			segs[i] = geom.S2(x1, r.Float64()*100, x1+1+r.Float64()*80, r.Float64()*100)
		}
		prof := envelope.Edges(segs).BuildUpperEnvelope(segs, 0)
		lo, hi, _ := prof.XRange()
		for _, hulls := range []bool{false, true} {
			o := profiletree.NewOps(persist.NewArena(1), hulls)
			o.Edges = segs
			tr := o.FromProfile(prof)
			// Above-everything queries: k_s = 0.
			var cleanSteps int64
			const cleanQ = 200
			for q := 0; q < cleanQ; q++ {
				x := lo + r.Float64()*(hi-lo)*0.9
				s := geom.S2(x, 1e4, x+(hi-lo)*0.1, 1e4)
				_, st := cg.QueryRelations(o, tr, s, envelope.NoEdge)
				cleanSteps += st.Steps
			}
			// Crossing-heavy queries.
			var crossSteps, crosses int64
			for q := 0; q < cleanQ; q++ {
				x := lo + r.Float64()*(hi-lo)*0.5
				s := geom.S2(x, r.Float64()*100, x+(hi-lo)*0.5, r.Float64()*100)
				_, st := cg.QueryRelations(o, tr, s, envelope.NoEdge)
				crossSteps += st.Steps
				crosses += st.Crossings
			}
			mode := "summary"
			if hulls {
				mode = "hulls"
			}
			mf := float64(m)
			perCross := float64(crossSteps) / float64(max64(crosses, 1))
			tb.AddRow(m, mode, float64(cleanSteps)/cleanQ, float64(cleanSteps)/cleanQ/math.Pow(log2(mf), 2), perCross)
		}
	}
	tb.Render(os.Stdout)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// expFG1: Figure 1 — segments of profiles shared among nodes of a PCT
// layer. For each phase-2 layer we report the summed size of inherited
// profiles (what independent copies would store) against the freshly
// allocated material; the ratio is the sharing factor persistence exploits.
func expFG1(quick bool) {
	rc := 64
	if quick {
		rc = 32
	}
	t := gen(workload.Params{Kind: workload.Fractal, Rows: rc, Cols: rc, Seed: 1, Amplitude: 5})
	r := mustOS(t, 0, false)
	tb := metrics.NewTable("layer", "nodes", "pieces-held", "newly-allocated", "sharing-factor")
	for _, st := range r.Phase2 {
		if st.Nodes == 0 {
			continue
		}
		share := float64(st.PrefixPiecesHeld) / math.Max(float64(st.PrefixPiecesAllocated), 1)
		tb.AddRow(st.Depth, st.Nodes, st.PrefixPiecesHeld, st.PrefixPiecesAllocated, share)
	}
	tb.Render(os.Stdout)
}

// expFG2: Figure 2 — the CG search structure over a profile. We report the
// structure's size, its height, and measured query path lengths against
// log2(m).
func expFG2(quick bool) {
	sizes := []int{1 << 8, 1 << 10, 1 << 12, 1 << 14}
	if quick {
		sizes = []int{1 << 8, 1 << 10}
	}
	r := rand.New(rand.NewSource(4))
	tb := metrics.NewTable("segments", "profile-pieces", "tree-size", "max-query-depth", "log2(m)", "avg-steps")
	for _, m := range sizes {
		segs := make([]geom.Seg2, m)
		for i := range segs {
			x1 := r.Float64() * 1000
			segs[i] = geom.S2(x1, r.Float64()*100, x1+1+r.Float64()*80, r.Float64()*100)
		}
		prof := envelope.Edges(segs).BuildUpperEnvelope(segs, 0)
		o := profiletree.NewOps(persist.NewArena(2), true)
		o.Edges = segs
		tr := o.FromProfile(prof)
		lo, hi, _ := prof.XRange()
		maxDepth, totalSteps := 0, int64(0)
		const nq = 300
		for q := 0; q < nq; q++ {
			x := lo + r.Float64()*(hi-lo)*0.9
			s := geom.S2(x, r.Float64()*120-10, x+0.02*(hi-lo), r.Float64()*120-10)
			_, st := cg.QueryRelations(o, tr, s, envelope.NoEdge)
			if st.MaxDepth > maxDepth {
				maxDepth = st.MaxDepth
			}
			totalSteps += st.Steps
		}
		tb.AddRow(m, len(prof), tr.Size(), maxDepth, log2(float64(len(prof))), float64(totalSteps)/nq)
	}
	tb.Render(os.Stdout)
}

// expFG3: Figure 3 — persistent convex chains/profiles across versions. We
// compare the persistent algorithm's total node allocations against the
// pieces a copy-per-node phase 2 materializes, over a size sweep.
func expFG3(quick bool) {
	sizes := sizesFor(quick)
	tb := metrics.NewTable("rows", "n", "k", "persistent-allocs", "copying-pieces", "copy/persist")
	for _, rc := range sizes {
		t := gen(workload.Params{Kind: workload.Fractal, Rows: rc, Cols: rc, Seed: 1, Amplitude: 5})
		r := mustOS(t, 0, false)
		simple, err := hsr.ParallelSimple(t, 0)
		if err != nil {
			log.Fatal(err)
		}
		var copied int64
		for _, st := range simple.Phase2 {
			copied += st.PrefixPiecesAllocated
		}
		tb.AddRow(rc, t.NumEdges(), r.K(), r.Counters.TreeAllocs, copied,
			float64(copied)/math.Max(float64(r.Counters.TreeAllocs), 1))
	}
	tb.Render(os.Stdout)
}

// expA1: ablation — the paper's persistent phase 2 against the copying
// parallelization on a fully visible terrain (k = Theta(n)), where copying
// degenerates toward Theta(n*k) work.
func expA1(quick bool) {
	sizes := []int{16, 24, 32, 48, 64}
	if quick {
		sizes = []int{16, 24, 32}
	}
	tb := metrics.NewTable("rows", "n", "k", "work-OS", "work-copying", "copying/OS", "wall-OS", "wall-copying")
	for _, rc := range sizes {
		t := gen(workload.Params{Kind: workload.TiltedUp, Rows: rc, Cols: rc, Seed: 2, Slope: 1})
		start := time.Now()
		r := mustOS(t, 0, false)
		wallOS := time.Since(start)
		start = time.Now()
		simple, err := hsr.ParallelSimple(t, 0)
		if err != nil {
			log.Fatal(err)
		}
		wallCp := time.Since(start)
		tb.AddRow(rc, t.NumEdges(), r.K(), r.Work(), simple.Work(),
			float64(simple.Work())/float64(r.Work()),
			wallOS.Round(time.Microsecond).String(), wallCp.Round(time.Microsecond).String())
	}
	tb.Render(os.Stdout)
}

// expA2: ablation — exact hull-augmented pruning (the paper's ACG) against
// O(1) summary pruning: query steps and wall-clock on a fractal terrain
// (typical) and a staircase (adversarial for summaries).
func expA2(quick bool) {
	rc := 48
	if quick {
		rc = 24
	}
	tb := metrics.NewTable("workload", "mode", "query-steps", "hull-ops", "tree-allocs", "wall")
	for _, kind := range []workload.Kind{workload.Fractal, workload.Steps} {
		t := gen(workload.Params{Kind: kind, Rows: rc, Cols: rc, Seed: 6, Amplitude: 5})
		for _, hulls := range []bool{false, true} {
			start := time.Now()
			r := mustOS(t, 0, hulls)
			wall := time.Since(start)
			mode := "summary"
			if hulls {
				mode = "hulls"
			}
			tb.AddRow(string(kind), mode, r.Counters.QuerySteps, r.Counters.HullOps,
				r.Counters.TreeAllocs, wall.Round(time.Microsecond).String())
		}
	}
	tb.Render(os.Stdout)
}
