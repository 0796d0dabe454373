package profiletree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"terrainhsr/internal/envelope"
	"terrainhsr/internal/persist"
)

// randRuns draws a batch of 1-4 sorted, disjoint runs over [lo-5, hi+5],
// each covered by 1-3 abutting pieces at random heights. Edge ids start at
// *edge and index no table, so heights come from the pieces themselves.
func randRuns(r *rand.Rand, lo, hi float64, edge *int32) []Run {
	m := 1 + r.Intn(4)
	xs := make([]float64, 2*m)
	for i := range xs {
		xs[i] = lo - 5 + r.Float64()*(hi-lo+10)
	}
	slices.Sort(xs)
	var runs []Run
	for i := 0; i < m; i++ {
		x1, x2 := xs[2*i], xs[2*i+1]
		if x2-x1 < 0.01 {
			continue
		}
		n := 1 + r.Intn(3)
		run := Run{X1: x1, X2: x2}
		for j := 0; j < n; j++ {
			a, b := x1+(x2-x1)*float64(j)/float64(n), x1+(x2-x1)*float64(j+1)/float64(n)
			run.Pieces = append(run.Pieces, envelope.Piece{X1: a, Z1: r.Float64() * 60, X2: b, Z2: r.Float64() * 60, Edge: *edge})
			*edge++
		}
		runs = append(runs, run)
	}
	return runs
}

// sameNodes reports where two profile trees differ in shape, piece, size or
// aggregate (hull chains by their points), or "" when they are equal.
func sameNodes(p, q *Node) string {
	switch {
	case p == nil && q == nil:
		return ""
	case p == nil || q == nil:
		return fmt.Sprintf("nil vs non-nil (sizes %d, %d)", size(p), size(q))
	case p.Val != q.Val || size(p) != size(q):
		return fmt.Sprintf("piece %+v (size %d) vs %+v (size %d)", p.Val, size(p), q.Val, size(q))
	}
	pa, qa := p.Agg, q.Agg
	if pa.X1 != qa.X1 || pa.X2 != qa.X2 || pa.ZMin != qa.ZMin || pa.ZMax != qa.ZMax || pa.HasGap != qa.HasGap {
		return fmt.Sprintf("aggregate at %+v: %+v vs %+v", p.Val, pa, qa)
	}
	if (pa.Hulls == nil) != (qa.Hulls == nil) {
		return fmt.Sprintf("hulls at %+v: present in one tree only", p.Val)
	}
	if pa.Hulls != nil && (!slices.Equal(pa.Lower.Points(), qa.Lower.Points()) || !slices.Equal(pa.Upper.Points(), qa.Upper.Points())) {
		return fmt.Sprintf("hull chains at %+v differ", p.Val)
	}
	if d := sameNodes(p.L, q.L); d != "" {
		return d
	}
	return sameNodes(p.R, q.R)
}

// TestSpliceInPlaceMatchesPersistent splices the same random run batches
// into the same profile with a persistent and an in-place Ops from one
// arena seed. After every batch both trees must hold the same nodes in the
// same shape, validate, and have cost the same Arena.Allocs.
func TestSpliceInPlaceMatchesPersistent(t *testing.T) {
	for _, hulls := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			per, inp := NewOps(persist.NewArena(uint64(seed)), hulls), NewOps(persist.NewArena(uint64(seed)), hulls)
			inp.P.InPlace = true
			base := randProfile(r, 30)
			pt, it := per.FromProfile(base), inp.FromProfile(base)
			edge := int32(1000)
			for batch := 0; batch < 150; batch++ {
				lo, hi := pt.Root.Agg.X1, pt.Root.Agg.X2
				runs := randRuns(r, lo, hi, &edge)
				pt, it = per.Splice(pt, runs), inp.Splice(it, runs)
				label := fmt.Sprintf("hulls=%v seed %d batch %d", hulls, seed, batch)
				if d := sameNodes(pt.Root, it.Root); d != "" {
					t.Fatalf("%s: %s", label, d)
				}
				if !slices.Equal(ToProfile(pt), ToProfile(it)) {
					t.Fatalf("%s: profiles differ", label)
				}
				if err := Validate(it); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if per.Arena.Allocs != inp.Arena.Allocs {
					t.Fatalf("%s: Allocs %d persistent, %d in place", label, per.Arena.Allocs, inp.Arena.Allocs)
				}
			}
			// In place, the slabs hold the live profile plus what one batch
			// drops, not every node the splices wrote.
			if got, limit := inp.P.Carved(), 2*(30+it.Size())+40; got > limit {
				t.Fatalf("hulls=%v seed %d: in place carved %d nodes for a %d-piece profile, want at most %d",
					hulls, seed, got, it.Size(), limit)
			}
		}
	}
}

// BenchmarkSplice times one run batch spliced into a profile of about 210
// pieces (the largest profile of a 128x128 massive sweep has 217), with the
// persistent path copying the parallel kernel needs and with the in-place
// mode sequential-tree runs. Every 4096 batches the profile is rebuilt on a
// Reset Ops, as a pooled solve would start afresh, so the persistent slabs
// stay bounded.
func BenchmarkSplice(b *testing.B) {
	for _, mode := range []struct {
		name    string
		inPlace bool
	}{{"persistent", false}, {"in-place", true}} {
		b.Run(mode.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			base := randProfile(r, 700)
			batches := make([][]Run, 512)
			lo, hi, _ := base.XRange()
			edge := int32(1 << 20)
			for i := range batches {
				batches[i] = randSpliceBatch(r, lo, hi, float64(len(base)), &edge)
			}
			o := NewOps(persist.NewArena(7), false)
			restart := func(p envelope.Profile) Tree {
				o.Reset()
				o.P.InPlace = mode.inPlace
				return o.FromProfile(p)
			}
			tr := restart(base)
			b.ReportAllocs()
			b.ResetTimer()
			writes := int64(0)
			for i := 0; i < b.N; i++ {
				if i%4096 == 4095 {
					writes += o.Arena.Allocs
					tr = restart(ToProfile(tr))
					writes -= o.Arena.Allocs
				}
				tr = o.Splice(tr, batches[i%len(batches)])
			}
			writes += o.Arena.Allocs
			b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
			b.ReportMetric(float64(tr.Size()), "pieces")
		})
	}
}

// randSpliceBatch draws the run batch of one sweep step: usually one run,
// sometimes two, each about one piece wide and covered by one or two
// pieces, so that a long sequence of batches keeps the profile's size
// roughly steady.
func randSpliceBatch(r *rand.Rand, lo, hi, pieces float64, edge *int32) []Run {
	avg := (hi - lo) / pieces
	n := 1 + r.Intn(2)
	var runs []Run
	x := lo + r.Float64()*(hi-lo)/float64(n)
	for i := 0; i < n; i++ {
		w := avg * (0.5 + 2*r.Float64())
		k := 1 + r.Intn(2)
		run := Run{X1: x, X2: x + w}
		for j := 0; j < k; j++ {
			a, b := x+w*float64(j)/float64(k), x+w*float64(j+1)/float64(k)
			run.Pieces = append(run.Pieces, envelope.Piece{X1: a, Z1: 50 + r.Float64(), X2: b, Z2: 50 + r.Float64(), Edge: *edge})
			*edge++
		}
		runs = append(runs, run)
		x += w + (hi-lo)/float64(2*n)
	}
	return runs
}
