package cg

import (
	"math"
	"math/rand"
	"testing"

	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/persist"
	"terrainhsr/internal/profiletree"
)

func randProfile(r *rand.Rand, n int) envelope.Profile {
	segs := make([]geom.Seg2, n)
	for i := range segs {
		x1 := r.Float64() * 80
		segs[i] = geom.S2(x1, r.Float64()*40, x1+1+r.Float64()*20, r.Float64()*40)
	}
	return envelope.Edges(nil).BuildUpperEnvelope(segs, 0)
}

// relationsAgree checks that the queried relations match ClipAbove's spans.
func relationsAgree(t *testing.T, label string, rels []Relation, s geom.Seg2, p envelope.Profile) {
	t.Helper()
	want := envelope.Edges(nil).ClipAbove(s, envelope.NoEdge, p)
	got := VisibleSpans(rels, s)
	if len(want.Spans) != len(got) {
		t.Fatalf("%s: %d vs %d visible spans\nwant %+v\ngot %+v", label, len(want.Spans), len(got), want.Spans, got)
	}
	for i := range got {
		if math.Abs(want.Spans[i].X1-got[i].X1) > 1e-6 || math.Abs(want.Spans[i].X2-got[i].X2) > 1e-6 {
			t.Fatalf("%s: span %d: want %+v got %+v", label, i, want.Spans[i], got[i])
		}
	}
}

func TestQueryMatchesClipAboveRandom(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, hulls := range []bool{false, true} {
		o := profiletree.NewOps(persist.NewArena(5), hulls)
		for trial := 0; trial < 60; trial++ {
			p := randProfile(r, 2+trial%20)
			tr := o.FromProfile(p)
			for q := 0; q < 10; q++ {
				x1 := r.Float64() * 100
				s := geom.S2(x1, r.Float64()*60-10, x1+1+r.Float64()*40, r.Float64()*60-10)
				rels, _ := QueryRelations(o, tr, s, envelope.NoEdge)
				relationsAgree(t, "random", rels, s, p)
			}
		}
	}
}

func TestQueryEmptyProfile(t *testing.T) {
	o := profiletree.NewOps(persist.NewArena(6), false)
	s := geom.S2(0, 1, 5, 2)
	rels, _ := QueryRelations(o, profiletree.Tree{}, s, envelope.NoEdge)
	if len(rels) != 1 || !rels[0].Above || rels[0].X1 != 0 || rels[0].X2 != 5 {
		t.Fatalf("empty profile relations: %+v", rels)
	}
}

func TestQueryVerticalSegmentIgnored(t *testing.T) {
	o := profiletree.NewOps(persist.NewArena(7), false)
	rels, _ := QueryRelations(o, profiletree.Tree{}, geom.S2(1, 0, 1, 5), envelope.NoEdge)
	if rels != nil {
		t.Fatalf("vertical segment should yield nil relations, got %+v", rels)
	}
}

func TestQueryCrossingCount(t *testing.T) {
	o := profiletree.NewOps(persist.NewArena(8), false)
	// Profile: single descending piece; segment crosses it once.
	p := envelope.Profile{{X1: 0, Z1: 10, X2: 10, Z2: 0, Edge: 0}}
	tr := o.FromProfile(p)
	s := geom.S2(0, 0, 10, 10)
	rels, st := QueryRelations(o, tr, s, envelope.NoEdge)
	if st.Crossings != 1 {
		t.Fatalf("crossings %d want 1 (rels %+v)", st.Crossings, rels)
	}
}

func TestQueryGapBoundaryEvents(t *testing.T) {
	o := profiletree.NewOps(persist.NewArena(9), false)
	p := envelope.Profile{
		{X1: 0, Z1: 10, X2: 3, Z2: 10, Edge: 0},
		{X1: 6, Z1: 10, X2: 9, Z2: 10, Edge: 1},
	}
	tr := o.FromProfile(p)
	s := geom.S2(1, 5, 8, 5) // below pieces, visible over the gap
	rels, st := QueryRelations(o, tr, s, envelope.NoEdge)
	spans := VisibleSpans(rels, s)
	if len(spans) != 1 || math.Abs(spans[0].X1-3) > 1e-9 || math.Abs(spans[0].X2-6) > 1e-9 {
		t.Fatalf("gap visibility wrong: %+v", spans)
	}
	if st.Crossings != 2 {
		t.Fatalf("expected 2 T-vertex events, got %d", st.Crossings)
	}
}

func TestPruningActuallyPrunes(t *testing.T) {
	// A segment far above a large profile must be resolved near the root.
	r := rand.New(rand.NewSource(10))
	p := randProfile(r, 300)
	for _, hulls := range []bool{false, true} {
		o := profiletree.NewOps(persist.NewArena(11), hulls)
		tr := o.FromProfile(p)
		lo, hi, _ := p.XRange()
		s := geom.S2(lo, 1e5, hi, 1e5)
		_, st := QueryRelations(o, tr, s, envelope.NoEdge)
		if st.Steps > 8 {
			t.Fatalf("hulls=%v: query above everything visited %d nodes", hulls, st.Steps)
		}
		// Far below a gap-free region: also cheap with hulls.
		s2 := geom.S2(lo, -1e5, hi, -1e5)
		_, st2 := QueryRelations(o, tr, s2, envelope.NoEdge)
		if st2.Steps > int64(8+tr.Size()) {
			t.Fatalf("hulls=%v: below-query visited %d nodes", hulls, st2.Steps)
		}
	}
}

func TestHullPruningBeatsSummaryOnSlopedProfile(t *testing.T) {
	// A long staircase profile and a segment running just above it but
	// parallel: z-summaries cannot prune (z-ranges overlap), hull tangent
	// tests can.
	var p envelope.Profile
	for i := 0; i < 256; i++ {
		x := float64(i)
		p = append(p, envelope.Piece{X1: x, Z1: x, X2: x + 1, Z2: x + 1, Edge: int32(i)})
	}
	oSum := profiletree.NewOps(persist.NewArena(12), false)
	oHull := profiletree.NewOps(persist.NewArena(13), true)
	tSum := oSum.FromProfile(p)
	tHull := oHull.FromProfile(p)
	s := geom.S2(0, 1, 256, 257) // parallel, one unit above
	_, stSum := QueryRelations(oSum, tSum, s, envelope.NoEdge)
	_, stHull := QueryRelations(oHull, tHull, s, envelope.NoEdge)
	if stHull.Steps > 8 {
		t.Fatalf("hull pruning should resolve at the root, visited %d", stHull.Steps)
	}
	if stSum.Steps <= stHull.Steps {
		t.Fatalf("expected summary mode to visit more nodes (%d vs %d)", stSum.Steps, stHull.Steps)
	}
	// And both give the same (fully visible) answer.
	relsS, _ := QueryRelations(oSum, tSum, s, envelope.NoEdge)
	relsH, _ := QueryRelations(oHull, tHull, s, envelope.NoEdge)
	if len(relsS) != 1 || !relsS[0].Above || len(relsH) != 1 || !relsH[0].Above {
		t.Fatalf("answers differ: %+v vs %+v", relsS, relsH)
	}
}

func TestVisibleRunsAttribution(t *testing.T) {
	o := profiletree.NewOps(persist.NewArena(14), false)
	p := envelope.Profile{{X1: 0, Z1: 5, X2: 4, Z2: 5, Edge: 0}}
	tr := o.FromProfile(p)
	s := geom.S2(2, 0, 8, 12)
	rels, _ := QueryRelations(o, tr, s, envelope.NoEdge)
	runs := VisibleRuns(o, nil, rels, s, 42)
	if len(runs) != 1 {
		t.Fatalf("runs: %+v", runs)
	}
	for _, pc := range runs[0].Pieces {
		if pc.Edge != 42 {
			t.Fatalf("attribution lost: %+v", pc)
		}
	}
}

func TestQueryStepsLogarithmicOnPrunable(t *testing.T) {
	// Query cost for a short segment against a big profile must scale
	// logarithmically, not linearly.
	r := rand.New(rand.NewSource(15))
	big := randProfile(r, 2000)
	o := profiletree.NewOps(persist.NewArena(16), false)
	tr := o.FromProfile(big)
	lo, hi, _ := big.XRange()
	var totalSteps int64
	const queries = 50
	for q := 0; q < queries; q++ {
		x := lo + r.Float64()*(hi-lo)*0.95
		s := geom.S2(x, r.Float64()*40, x+0.5, r.Float64()*40)
		_, st := QueryRelations(o, tr, s, envelope.NoEdge)
		totalSteps += st.Steps
	}
	avg := float64(totalSteps) / queries
	if avg > 64 {
		t.Fatalf("average short-segment query visited %.1f nodes on a %d-piece profile", avg, tr.Size())
	}
}
