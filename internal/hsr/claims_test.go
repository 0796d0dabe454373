package hsr

import (
	"math"
	"strings"
	"sync"
	"testing"

	"terrainhsr/internal/terrain"
	"terrainhsr/internal/workload"
)

// The shape claims of Theorem 3.1 and of the paper's figures, as tier-1
// tests. Every claim is a least-squares exponent over a sweep of at least
// four inputs, so each test states the exponent it allows and reports the
// one it measured. All inputs are seeded, so every fit is deterministic.

// claimSizes is the fractal size sweep (rows = cols) shared by the
// size-scaling claims: n runs from 800 to 49,408 edges. It stops where the
// suite's time budget does, not where a curve bends; in particular it
// spans the sizes over which Phase 1's depth visibly outgrows log⁴ n (see
// TestClaimTH1Phase1DepthChunkBounded).
var claimSizes = []int{16, 24, 32, 48, 64, 96, 128}

// claimRun is one ParallelOS solve of the fractal sweep.
type claimRun struct {
	rows int
	t    *terrain.Terrain
	r    *Result
	// depth1 and depth2 split the charged depth between Phase 1 (the PCT's
	// bottom-up envelope merges) and Phase 2 (the top-down crossing
	// queries and splices); maxLayer1 is Phase 1's most expensive layer.
	depth1, depth2, maxLayer1 int64
}

func (c claimRun) n() float64 { return float64(c.r.N) }

var (
	claimOnce sync.Once
	claimRuns []claimRun
	claimErr  error
)

// fractalSweep solves the sweep once per test binary: fractal terrain,
// seed 1, amplitude 5, default workers.
func fractalSweep(t *testing.T) []claimRun {
	t.Helper()
	claimOnce.Do(func() {
		for _, rc := range claimSizes {
			tr, err := workload.Generate(workload.Params{Kind: workload.Fractal, Rows: rc, Cols: rc, Seed: 1, Amplitude: 5})
			if err != nil {
				claimErr = err
				return
			}
			r, err := prepT(t, tr).ParallelOS(OSOptions{})
			if err != nil {
				claimErr = err
				return
			}
			c := claimRun{rows: rc, t: tr, r: r}
			for _, ph := range r.Acct.Phases() {
				if strings.HasPrefix(ph.Name, "phase1/") {
					c.depth1 += ph.MaxTaskCost
					c.maxLayer1 = max(c.maxLayer1, ph.MaxTaskCost)
				} else {
					c.depth2 += ph.MaxTaskCost
				}
			}
			claimRuns = append(claimRuns, c)
		}
	})
	if claimErr != nil {
		t.Fatal(claimErr)
	}
	return claimRuns
}

// fitExponent returns the least-squares slope of ln y against ln x: the
// exponent e of the best fit y ≈ c·x^e.
func fitExponent(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range xs {
		x, y := math.Log(xs[i]), math.Log(ys[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	m := float64(len(xs))
	return (m*sxy - sx*sy) / (m*sxx - sx*sx)
}

// sweepExponent fits f over the sweep against g (both evaluated per run).
func sweepExponent(runs []claimRun, g, f func(claimRun) float64) float64 {
	xs, ys := make([]float64, len(runs)), make([]float64, len(runs))
	for i, c := range runs {
		xs[i], ys[i] = g(c), f(c)
	}
	return fitExponent(xs, ys)
}

func log2n(c claimRun) float64 { return math.Log2(c.n()) }

// TestClaimTH1Phase2DepthPolylog is Theorem 3.1's time bound for the part
// of the algorithm the paper's polylog analysis is about: Phase 2's charged
// depth (its crossing queries and splices, one PRAM task per query) must
// grow no faster than log⁴ n. Measured: exponent 2.75 in log₂ n over the
// sweep, with depth / log₂³ n between 0.36 and 0.46 (it stays in that band
// up to n = 111k).
//
// The total depth is not held to log⁴ n: at these sizes Phase 1 is 83% of
// it at 128×128 and grows like n^0.6 (see
// TestClaimTH1Phase1DepthChunkBounded), pushing the total's exponent in
// log₂ n from 4.1 to 4.8 as the sweep widens.
func TestClaimTH1Phase2DepthPolylog(t *testing.T) {
	const allowed = 4.0
	runs := fractalSweep(t)
	got := sweepExponent(runs, log2n, func(c claimRun) float64 { return float64(c.depth2) })
	total := sweepExponent(runs, log2n, func(c claimRun) float64 { return float64(c.depth1 + c.depth2) })
	t.Logf("phase-2 depth ~ log2(n)^%.2f (allowed %.0f); total depth ~ log2(n)^%.2f", got, allowed, total)
	for _, c := range runs {
		t.Logf("%3dx%-3d n=%6d phase-1 depth %5d phase-2 depth %5d (%.2f·log2³ n)",
			c.rows, c.rows, c.r.N, c.depth1, c.depth2, float64(c.depth2)/math.Pow(log2n(c), 3))
	}
	if got > allowed {
		t.Fatalf("phase-2 depth grows like log2(n)^%.2f; Theorem 3.1 allows exponent %.0f", got, allowed)
	}
}

// mergeCostBound is the most a single Phase 1 merge may be charged:
// envelope.MergeParallelStats runs a merge of up to 2×mergeChunkSize =
// 4,096 pieces as one sequential sweep, and charges a larger one its
// largest chunk, which holds at most that many pieces. A sweep over m
// pieces takes at most 3m+1 steps (each piece is passed once, and x stops
// at each of at most 2m breakpoints), and the PCT charges steps + 1.
const mergeCostBound = 3*4096 + 2

// TestClaimTH1Phase1DepthChunkBounded is the depth claim for Phase 1, the
// PCT's bottom-up envelope merges (Lemma 3.1). Each layer's critical path
// is its most expensive merge, and a merge is charged at most the
// chunked-merge bound, so the phase's depth is at most (tree height + 1)
// × mergeCostBound: O(log n) by construction, with a 4,096-piece
// constant. Below that constant every merge runs as one sequential sweep,
// so over this sweep the measured phase-1 depth grows like n^0.6 — this
// test states the constant the paper's log² n merge depth hides, it does
// not claim polylog growth at these sizes.
func TestClaimTH1Phase1DepthChunkBounded(t *testing.T) {
	runs := fractalSweep(t)
	inN := sweepExponent(runs, func(c claimRun) float64 { return c.n() }, func(c claimRun) float64 { return float64(c.depth1) })
	inLog := sweepExponent(runs, log2n, func(c claimRun) float64 { return float64(c.depth1) })
	t.Logf("phase-1 depth ~ n^%.2f ~ log2(n)^%.2f", inN, inLog)
	for _, c := range runs {
		layers := int64(len(c.r.Phase1))
		if c.maxLayer1 > mergeCostBound {
			t.Fatalf("%dx%d: a phase-1 layer is charged %d, above the chunked-merge bound %d", c.rows, c.rows, c.maxLayer1, mergeCostBound)
		}
		if limit := layers * mergeCostBound; c.depth1 > limit {
			t.Fatalf("%dx%d: phase-1 depth %d exceeds (height+1)=%d × %d = %d", c.rows, c.rows, c.depth1, layers, mergeCostBound, limit)
		}
	}
}

// TestClaimTH2WorkNearLinear is Theorem 3.1's work bound: work / (n + k)
// may grow at most like log³ n (the O(log⁴ n) time on n/log n processors).
// Measured: exponent 0.6, work / (n + k) from 28 to 37.
func TestClaimTH2WorkNearLinear(t *testing.T) {
	const allowed = 3.0
	runs := fractalSweep(t)
	got := sweepExponent(runs, log2n, func(c claimRun) float64 {
		return float64(c.r.Work()) / (c.n() + float64(c.r.K()))
	})
	if got > allowed {
		t.Fatalf("work/(n+k) grows like log2(n)^%.2f; Theorem 3.1 allows exponent %.0f", got, allowed)
	}
	t.Logf("work/(n+k) ~ log2(n)^%.2f (allowed %.0f)", got, allowed)
}

// ridge returns the ridge scene of the output-sensitivity claims: the
// ridge hides more of the terrain behind it as it grows.
func ridge(t *testing.T, rc int, height float64) *terrain.Terrain {
	t.Helper()
	tr, err := workload.Generate(workload.Params{Kind: workload.Ridge, Rows: rc, Cols: rc, Seed: 3, Amplitude: 4, RidgeHeight: height})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestClaimTH3WorkTracksK is output sensitivity at fixed n: raising the
// ridge shrinks the visible output k while the pairwise crossing count I
// grows. Work must fall with k (elasticity at least 0.2; measured 0.36)
// and must not grow with I (elasticity at most 0; measured negative).
func TestClaimTH3WorkTracksK(t *testing.T) {
	const minInK, maxInI = 0.2, 0.0
	var ks, is, works []float64
	for _, h := range []float64{0.5, 2, 4, 8, 16, 32} {
		tr := ridge(t, 24, h)
		r, err := prepT(t, tr).ParallelOS(OSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ap, err := prepT(t, tr).AllPairs()
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, float64(r.K()))
		is = append(is, float64(ap.IntersectionsI))
		works = append(works, float64(r.Work()))
		t.Logf("ridge height %4.1f: k=%4d I=%6d work=%7d", h, r.K(), ap.IntersectionsI, r.Work())
	}
	inK, inI := fitExponent(ks, works), fitExponent(is, works)
	if inK < minInK {
		t.Fatalf("work ~ k^%.2f: work must track k with exponent at least %.1f", inK, minInK)
	}
	if inI > maxInI {
		t.Fatalf("work ~ I^%.2f: work must not grow with the crossing count I (allowed exponent %.0f)", inI, maxInI)
	}
	t.Logf("work ~ k^%.2f (at least %.1f), work ~ I^%.2f (at most %.0f)", inK, minInK, inI, maxInI)
}

// TestClaimTH3BeatsIntersectionSensitive sets the paper's algorithm against
// the AllPairs baseline, which pays for every pairwise crossing, on the
// occluded ridge scene over a size sweep. The paper's work must stay near
// linear in n (exponent at most 1.5; measured 1.1) and the baseline's must
// grow faster by at least 0.5 (measured 1.9 against 1.1), so the gap widens
// with n; at the largest size it must be at least 5x (measured 26x).
func TestClaimTH3BeatsIntersectionSensitive(t *testing.T) {
	const maxOS, minGap, minRatio = 1.5, 0.5, 5.0
	var ns, os, ap []float64
	for _, rc := range []int{12, 16, 20, 24} {
		tr := ridge(t, rc, 32)
		r, err := prepT(t, tr).ParallelOS(OSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		base, err := prepT(t, tr).AllPairs()
		if err != nil {
			t.Fatal(err)
		}
		ns = append(ns, float64(r.N))
		os = append(os, float64(r.Work()))
		ap = append(ap, float64(base.Work()))
	}
	eOS, eAP := fitExponent(ns, os), fitExponent(ns, ap)
	ratio := ap[len(ap)-1] / os[len(os)-1]
	t.Logf("work ~ n^%.2f, AllPairs work ~ n^%.2f, AllPairs/paper at n=%.0f: %.1fx", eOS, eAP, ns[len(ns)-1], ratio)
	if eOS > maxOS {
		t.Fatalf("paper's work ~ n^%.2f on the occluded scene; allowed exponent %.1f", eOS, maxOS)
	}
	if eAP-eOS < minGap {
		t.Fatalf("AllPairs work ~ n^%.2f vs paper's n^%.2f: the gap must be at least %.1f", eAP, eOS, minGap)
	}
	if ratio < minRatio {
		t.Fatalf("AllPairs does %.1fx the paper's work at the largest size; at least %.0fx expected", ratio, minRatio)
	}
}

// TestClaimTH4BrentSpeedup is Lemma 2.1 applied to the charged phases: the
// PRAM time T_p on p processors must fall like p^-e with e at least 0.9
// (measured 0.99) from p = 1 to 16 on the 64×64 terrain.
func TestClaimTH4BrentSpeedup(t *testing.T) {
	const minExp = 0.9
	var c claimRun
	for _, run := range fractalSweep(t) {
		if run.rows == 64 {
			c = run
		}
	}
	var ps, speedups []float64
	t1 := c.r.Acct.TimeOn(1)
	for p := 1; p <= 16; p *= 2 {
		ps = append(ps, float64(p))
		speedups = append(speedups, t1/c.r.Acct.TimeOn(p))
	}
	got := fitExponent(ps, speedups)
	if got < minExp {
		t.Fatalf("PRAM speedup ~ p^%.2f (%.1fx at p=16); at least exponent %.1f expected", got, speedups[len(speedups)-1], minExp)
	}
	t.Logf("PRAM speedup ~ p^%.2f (at least %.1f), %.1fx at p=16", got, minExp, speedups[len(speedups)-1])
}

// TestClaimTH5WithinPolylogOfSequential is the remark after Theorem 3.1:
// the parallel algorithm's work stays within a polylog factor of the
// sequential persistent-tree sweep's. The ratio may grow at most like
// log² n; measured exponent 0.95, ratio from 5.9 to 9.4.
func TestClaimTH5WithinPolylogOfSequential(t *testing.T) {
	const allowed = 2.0
	runs := fractalSweep(t)
	got := sweepExponent(runs, log2n, func(c claimRun) float64 {
		st, err := prepT(t, c.t).SequentialTree(false)
		if err != nil {
			t.Fatal(err)
		}
		return float64(c.r.Work()) / float64(st.Work())
	})
	if got > allowed {
		t.Fatalf("parallel/sequential-tree work ratio grows like log2(n)^%.2f; allowed exponent %.0f", got, allowed)
	}
	t.Logf("parallel/sequential-tree work ~ log2(n)^%.2f (allowed %.0f)", got, allowed)
}

// TestClaimFG1PersistenceSharing is Figures 1 and 3: the prefix profiles of
// a Phase 2 layer share most of their pieces, so what persistence holds
// per layer outgrows what it allocates. The sharing factor (pieces held /
// pieces allocated, summed over layers) must grow with n at exponent at
// least 0.25 (measured 0.6) and exceed 5 at every size (measured 12 to 161).
func TestClaimFG1PersistenceSharing(t *testing.T) {
	const minExp, minShare = 0.25, 5.0
	runs := fractalSweep(t)
	share := func(c claimRun) float64 {
		var held, alloc int64
		for _, st := range c.r.Phase2 {
			held += st.PrefixPiecesHeld
			alloc += st.PrefixPiecesAllocated
		}
		return float64(held) / math.Max(float64(alloc), 1)
	}
	for _, c := range runs {
		if s := share(c); s < minShare {
			t.Fatalf("%dx%d: sharing factor %.1fx; at least %.0fx expected", c.rows, c.rows, s, minShare)
		}
	}
	got := sweepExponent(runs, func(c claimRun) float64 { return c.n() }, share)
	if got < minExp {
		t.Fatalf("sharing factor ~ n^%.2f; at least exponent %.2f expected", got, minExp)
	}
	t.Logf("sharing factor ~ n^%.2f (at least %.2f)", got, minExp)
}

// TestClaimA1CopyingCostsMoreStorage is the persistence ablation: the
// copying Phase 2 (ParallelSimple) materializes every prefix profile, the
// persistent one allocates only tree nodes for spliced runs. Copying must
// store more than 3x the persistent allocations at every size, and the gap
// must grow with n at exponent at least 0.25 (measured 0.6, 6x to 81x).
func TestClaimA1CopyingCostsMoreStorage(t *testing.T) {
	const minExp, minRatio = 0.25, 3.0
	runs := fractalSweep(t)
	ratio := func(c claimRun) float64 {
		simple, err := prepT(t, c.t).ParallelSimple(0)
		if err != nil {
			t.Fatal(err)
		}
		var copied int64
		for _, st := range simple.Phase2 {
			copied += st.PrefixPiecesAllocated
		}
		r := float64(copied) / math.Max(float64(c.r.Counters.TreeAllocs), 1)
		if r < minRatio {
			t.Fatalf("%dx%d: copying stores %d pieces vs %d persistent allocations (%.1fx); at least %.0fx expected",
				c.rows, c.rows, copied, c.r.Counters.TreeAllocs, r, minRatio)
		}
		return r
	}
	got := sweepExponent(runs, func(c claimRun) float64 { return c.n() }, ratio)
	if got < minExp {
		t.Fatalf("copying/persistent storage ~ n^%.2f; at least exponent %.2f expected", got, minExp)
	}
	t.Logf("copying/persistent storage ~ n^%.2f (at least %.2f)", got, minExp)
}
