package hsr

import (
	"testing"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/persist"
	"terrainhsr/internal/profiletree"
	"terrainhsr/internal/workload"
)

// TestPooledSolveDeterministic pins the identity the serving fleet depends
// on: a solve's output bytes must not depend on which recycled arena the
// pool happens to hand over. Treap shape decides pruning and piece-split
// order in epsilon-close crossing queries, so before priorities were
// reseeded per PCT node, a pool whose history differed (extra Ops created
// under concurrent load) flipped span endpoints at float-rounding
// granularity — caught in the wild by the churn soak's body-identity
// check. The perspective-transformed view reproduces it where the
// canonical view does not.
func TestPooledSolveDeterministic(t *testing.T) {
	base, err := workload.Generate(workload.Params{Kind: workload.Ridge, Rows: 16, Cols: 16, Seed: 7, Amplitude: 8})
	if err != nil {
		t.Fatal(err)
	}
	pt := geom.PerspectiveTransform{Eye: geom.Pt3{X: -6.2857142857142865, Y: 8.56, Z: 16.528709539728016}}
	tt, err := base.TransformShared(pt.Apply)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Prepare(tt)
	if err != nil {
		t.Fatal(err)
	}
	emptyPool()
	baseline, err := prep.ParallelOS(OSOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, opt OSOptions) {
		res, err := prep.ParallelOS(opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(res.Pieces) != len(baseline.Pieces) {
			t.Fatalf("%s: %d pieces vs %d", label, len(res.Pieces), len(baseline.Pieces))
		}
		for i := range res.Pieces {
			if res.Pieces[i].Span != baseline.Pieces[i].Span || res.Pieces[i].Edge != baseline.Pieces[i].Edge {
				t.Fatalf("%s: piece %d differs: %+v vs %+v", label, i, res.Pieces[i], baseline.Pieces[i])
			}
		}
	}
	// A pool pre-loaded with arenas of every seed history a live server
	// might have accumulated.
	for seed := uint64(1); seed <= 20; seed++ {
		emptyPool()
		pool.release([]*profiletree.Ops{profiletree.NewOps(persist.NewArena(seed*12345), false)})
		check("pooled seed", OSOptions{Workers: 1})
	}
	// Worker count must not change the bytes either: dynamic scheduling
	// assigns nodes to arenas unpredictably.
	for _, w := range []int{2, 3, 8} {
		emptyPool()
		check("fresh workers", OSOptions{Workers: w})
		servePool(t, prep)
		for i := 0; i < 5; i++ {
			check("pooled workers", OSOptions{Workers: w})
		}
	}
}
