package profiletree

import (
	"math"
	"math/rand"
	"testing"

	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/persist"
)

func newOps(withHulls bool) *Ops { return NewOps(persist.NewArena(11), withHulls) }

func randProfile(r *rand.Rand, n int) envelope.Profile {
	segs := make([]geom.Seg2, n)
	for i := range segs {
		x1 := r.Float64() * 80
		segs[i] = geom.S2(x1, r.Float64()*40, x1+1+r.Float64()*20, r.Float64()*40)
	}
	return envelope.Edges(nil).BuildUpperEnvelope(segs, 0)
}

func TestFromToProfileRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, hulls := range []bool{false, true} {
		o := newOps(hulls)
		for trial := 0; trial < 10; trial++ {
			p := randProfile(r, 3+trial*4)
			tr := o.FromProfile(p)
			back := ToProfile(tr)
			if len(back) != len(p) {
				t.Fatalf("hulls=%v: round trip %d pieces want %d", hulls, len(back), len(p))
			}
			for i := range p {
				if p[i] != back[i] {
					t.Fatalf("hulls=%v: piece %d differs", hulls, i)
				}
			}
			if err := Validate(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestEvalMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	o := newOps(false)
	for trial := 0; trial < 20; trial++ {
		p := randProfile(r, 12)
		tr := o.FromProfile(p)
		for i := 0; i < 300; i++ {
			x := r.Float64() * 110
			zs, cs := p.Eval(x, nil)
			zt, ct := o.Eval(tr, x)
			if cs != ct || (cs && math.Abs(zs-zt) > 1e-12) {
				t.Fatalf("trial %d x=%v: slice (%v,%v) tree (%v,%v)", trial, x, zs, cs, zt, ct)
			}
		}
	}
}

func TestSplitAtXCutsPiece(t *testing.T) {
	o := newOps(false)
	p := envelope.Profile{{X1: 0, Z1: 0, X2: 10, Z2: 10, Edge: 3}}
	tr := o.FromProfile(p)
	l, r := o.SplitAtX(tr, 4)
	lp, rp := ToProfile(l), ToProfile(r)
	if len(lp) != 1 || len(rp) != 1 {
		t.Fatalf("split sizes: %d %d", len(lp), len(rp))
	}
	if lp[0].X2 != 4 || rp[0].X1 != 4 {
		t.Fatalf("split boundary wrong: %+v %+v", lp[0], rp[0])
	}
	if math.Abs(lp[0].Z2-4) > 1e-12 || math.Abs(rp[0].Z1-4) > 1e-12 {
		t.Fatalf("split z wrong: %+v %+v", lp[0], rp[0])
	}
	if lp[0].Edge != 3 || rp[0].Edge != 3 {
		t.Fatal("split lost edge attribution")
	}
	// Original unchanged (persistence).
	if ToProfile(tr)[0].X2 != 10 {
		t.Fatal("split mutated original")
	}
}

func TestSplitAtGapBoundary(t *testing.T) {
	o := newOps(false)
	p := envelope.Profile{
		{X1: 0, Z1: 1, X2: 2, Z2: 1, Edge: 0},
		{X1: 5, Z1: 2, X2: 7, Z2: 2, Edge: 1},
	}
	tr := o.FromProfile(p)
	l, r := o.SplitAtX(tr, 3) // inside the gap
	if l.Size() != 1 || r.Size() != 1 {
		t.Fatalf("gap split sizes %d %d", l.Size(), r.Size())
	}
	l2, r2 := o.SplitAtX(tr, 0) // before everything
	if l2.Size() != 0 || r2.Size() != 2 {
		t.Fatalf("left-edge split sizes %d %d", l2.Size(), r2.Size())
	}
	l3, r3 := o.SplitAtX(tr, 100) // after everything
	if l3.Size() != 2 || r3.Size() != 0 {
		t.Fatalf("right-edge split sizes %d %d", l3.Size(), r3.Size())
	}
}

func TestAggGapFlag(t *testing.T) {
	o := newOps(false)
	withGap := envelope.Profile{
		{X1: 0, Z1: 1, X2: 2, Z2: 1, Edge: 0},
		{X1: 5, Z1: 2, X2: 7, Z2: 2, Edge: 1},
	}
	tr := o.FromProfile(withGap)
	if !tr.Root.Agg.HasGap {
		t.Fatal("gap not detected")
	}
	solid := envelope.Profile{
		{X1: 0, Z1: 1, X2: 2, Z2: 1, Edge: 0},
		{X1: 2, Z1: 5, X2: 7, Z2: 2, Edge: 1},
	}
	tr2 := o.FromProfile(solid)
	if tr2.Root.Agg.HasGap {
		t.Fatal("false gap detected across abutting pieces")
	}
	if tr2.Root.Agg.ZMin != 1 || tr2.Root.Agg.ZMax != 5 {
		t.Fatalf("z-range wrong: %v %v", tr2.Root.Agg.ZMin, tr2.Root.Agg.ZMax)
	}
}

func TestSpliceMatchesSliceMerge(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, hulls := range []bool{false, true} {
		o := newOps(hulls)
		for trial := 0; trial < 25; trial++ {
			base := randProfile(r, 10)
			tr := o.FromProfile(base)
			// Generate a synthetic "above" run by lifting a region.
			lo, hi, okR := base.XRange()
			if !okR {
				continue
			}
			x1 := lo + (hi-lo)*0.3
			x2 := lo + (hi-lo)*0.6
			zTop := 100.0
			run := Run{X1: x1, X2: x2, Pieces: []envelope.Piece{{X1: x1, Z1: zTop, X2: x2, Z2: zTop, Edge: 99}}}
			spliced := o.Splice(tr, []Run{run})
			if err := Validate(spliced); err != nil {
				t.Fatalf("hulls=%v trial %d: %v", hulls, trial, err)
			}
			want := envelope.Edges(nil).Merge(base, envelope.Profile(run.Pieces))
			got := ToProfile(spliced)
			for i := 0; i < 200; i++ {
				x := lo + r.Float64()*(hi-lo)
				zw, cw := want.Eval(x, nil)
				zg, cg := got.Eval(x, nil)
				if cw != cg || (cw && math.Abs(zw-zg) > 1e-7) {
					if nearBreak(want, x) || nearBreak(got, x) {
						continue
					}
					t.Fatalf("hulls=%v trial %d x=%v: want (%v,%v) got (%v,%v)", hulls, trial, x, zw, cw, zg, cg)
				}
			}
		}
	}
}

func nearBreak(p envelope.Profile, x float64) bool {
	for _, pc := range p {
		if math.Abs(pc.X1-x) < 1e-6 || math.Abs(pc.X2-x) < 1e-6 {
			return true
		}
	}
	return false
}

func TestSpliceEmptyTree(t *testing.T) {
	o := newOps(false)
	run := Run{X1: 1, X2: 3, Pieces: []envelope.Piece{{X1: 1, Z1: 5, X2: 3, Z2: 5, Edge: 0}}}
	out := o.Splice(Tree{}, []Run{run})
	p := ToProfile(out)
	if len(p) != 1 || p[0].X1 != 1 || p[0].X2 != 3 {
		t.Fatalf("splice into empty: %+v", p)
	}
	if out2 := o.Splice(Tree{}, nil); out2.Size() != 0 {
		t.Fatal("empty splice should stay empty")
	}
}

func TestHullAggConsistent(t *testing.T) {
	// Every subtree's hulls must contain exactly the extreme vertices of
	// its pieces.
	r := rand.New(rand.NewSource(13))
	o := newOps(true)
	p := randProfile(r, 20)
	tr := o.FromProfile(p)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		var pts []geom.Pt2
		forEach(n, func(pc envelope.Piece) {
			pts = append(pts, geom.P2(pc.X1, pc.Z1), geom.P2(pc.X2, pc.Z2))
		})
		for q := 0; q < 10; q++ {
			m := (r.Float64()*2 - 1) * 5
			wantMax, wantMin := math.Inf(-1), math.Inf(1)
			for _, pt := range pts {
				v := pt.Z - m*pt.X
				wantMax = math.Max(wantMax, v)
				wantMin = math.Min(wantMin, v)
			}
			gotMax := n.Agg.Upper.ExtremeValue(m)
			gotMin := n.Agg.Lower.ExtremeValue(m)
			if math.Abs(gotMax-wantMax) > 1e-9*(1+math.Abs(wantMax)) {
				t.Fatalf("upper extreme at node: got %v want %v", gotMax, wantMax)
			}
			if math.Abs(gotMin-wantMin) > 1e-9*(1+math.Abs(wantMin)) {
				t.Fatalf("lower extreme at node: got %v want %v", gotMin, wantMin)
			}
		}
		walk(n.L)
		walk(n.R)
	}
	walk(tr.Root)
}

func TestPersistenceAcrossSplices(t *testing.T) {
	o := newOps(false)
	base := envelope.Profile{{X1: 0, Z1: 0, X2: 100, Z2: 0, Edge: 0}}
	v0 := o.FromProfile(base)
	versions := []Tree{v0}
	cur := v0
	for i := 0; i < 8; i++ {
		x1 := float64(i*10 + 1)
		run := Run{X1: x1, X2: x1 + 5, Pieces: []envelope.Piece{{X1: x1, Z1: 10, X2: x1 + 5, Z2: 10, Edge: int32(i + 1)}}}
		cur = o.Splice(cur, []Run{run})
		versions = append(versions, cur)
	}
	for vi, v := range versions {
		p := ToProfile(v)
		if err := p.Validate(); err != nil {
			t.Fatalf("version %d: %v", vi, err)
		}
		// Version vi has vi humps.
		humps := 0
		for _, pc := range p {
			if pc.Z1 == 10 && pc.Z2 == 10 {
				humps++
			}
		}
		if humps != vi {
			t.Fatalf("version %d has %d humps", vi, humps)
		}
	}
}
