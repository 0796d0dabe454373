package pct

import (
	"math"
	"math/rand"
	"testing"

	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/pram"
)

func randSegs(r *rand.Rand, n int) []geom.Seg2 {
	segs := make([]geom.Seg2, n)
	for i := range segs {
		x1 := r.Float64() * 50
		segs[i] = geom.Seg2{
			A: geom.P2(x1, r.Float64()*20),
			B: geom.P2(x1+0.5+r.Float64()*20, r.Float64()*20),
		}
	}
	return segs
}

func ids(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func TestPhase1RootIsFullEnvelope(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	segs := randSegs(r, 33)
	tree := New(segs, ids(33))
	var acct pram.Accounting
	stats := tree.BuildPhase1(4, &acct)
	if len(stats) == 0 {
		t.Fatal("no phase1 stats")
	}
	want := envelope.Edges(nil).BuildUpperEnvelope(segs, 0)
	got := tree.Root()
	for i := 0; i < 500; i++ {
		x := r.Float64() * 75
		zw, cw := want.Eval(x, nil)
		zg, cg := got.Eval(x, nil)
		if cw != cg {
			if nearAnyBreak(want, got, x) {
				continue
			}
			t.Fatalf("coverage mismatch at %v", x)
		}
		if cw && math.Abs(zw-zg) > 1e-7 {
			if nearAnyBreak(want, got, x) {
				continue
			}
			t.Fatalf("value mismatch at %v: %v vs %v", x, zw, zg)
		}
	}
	if acct.NumPhases() == 0 {
		t.Fatal("phase1 recorded no PRAM phases")
	}
	// Depth of phase 1 must be far below its work on a non-trivial input.
	if acct.Depth() > acct.Work() {
		t.Fatalf("depth %d exceeds work %d", acct.Depth(), acct.Work())
	}
}

func nearAnyBreak(a, b envelope.Profile, x float64) bool {
	for _, p := range [][]envelope.Piece{a, b} {
		for _, pc := range p {
			if math.Abs(pc.X1-x) < 1e-6 || math.Abs(pc.X2-x) < 1e-6 {
				return true
			}
		}
	}
	return false
}

func TestPhase1EveryNodeCoversItsSubtree(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	segs := randSegs(r, 17)
	tree := New(segs, ids(17))
	tree.BuildPhase1(2, nil)
	for node := 1; node < len(tree.Sep.Lo); node++ {
		if !tree.Sep.Live(node) {
			continue
		}
		lo, hi := tree.Sep.Lo[node], tree.Sep.Hi[node]
		want := envelope.Edges(nil).BuildUpperEnvelope(segs[lo:hi], int32(lo))
		got := tree.Inter[node]
		for i := 0; i < 60; i++ {
			x := r.Float64() * 75
			zw, cw := want.Eval(x, nil)
			zg, cg := got.Eval(x, nil)
			if cw != cg || (cw && math.Abs(zw-zg) > 1e-7) {
				if nearAnyBreak(want, got, x) {
					continue
				}
				t.Fatalf("node %d [%d,%d) differs at x=%v", node, lo, hi, x)
			}
		}
	}
}

func TestPhase2LeafPrefixSemantics(t *testing.T) {
	// Phase 2 at each leaf must clip against exactly the envelope of all
	// preceding segments.
	r := rand.New(rand.NewSource(9))
	segs := randSegs(r, 21)
	tree := New(segs, ids(21))
	tree.BuildPhase1(3, nil)
	vis, _ := tree.Phase2Simple(3, nil)
	for pos := range segs {
		prefix := envelope.Edges(nil).BuildUpperEnvelope(segs[:pos], 0)
		want := envelope.Edges(nil).ClipAbove(segs[pos], envelope.NoEdge, prefix)
		got := vis[pos]
		if got.Pos != pos {
			t.Fatalf("leaf order scrambled: %d vs %d", got.Pos, pos)
		}
		if len(want.Spans) != len(got.Spans) {
			t.Fatalf("pos %d: %d vs %d spans (%v vs %v)", pos, len(want.Spans), len(got.Spans), want.Spans, got.Spans)
		}
		for i := range want.Spans {
			if math.Abs(want.Spans[i].X1-got.Spans[i].X1) > 1e-6 ||
				math.Abs(want.Spans[i].X2-got.Spans[i].X2) > 1e-6 {
				t.Fatalf("pos %d span %d: %+v vs %+v", pos, i, want.Spans[i], got.Spans[i])
			}
		}
	}
}

func TestPhase2StatsSharing(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	segs := randSegs(r, 64)
	tree := New(segs, ids(64))
	tree.BuildPhase1(4, nil)
	_, stats := tree.Phase2Simple(4, nil)
	var held, alloc int64
	for _, st := range stats {
		held += st.PrefixPiecesHeld
		alloc += st.PrefixPiecesAllocated
	}
	if alloc == 0 || held <= alloc {
		t.Fatalf("sharing stats implausible: held=%d alloc=%d", held, alloc)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	tree := New(nil, nil)
	if st := tree.BuildPhase1(2, nil); st != nil {
		t.Fatal("empty tree produced stats")
	}
	vis, _ := tree.Phase2Simple(2, nil)
	if vis != nil {
		t.Fatal("empty tree produced visibility")
	}

	seg := []geom.Seg2{geom.S2(0, 1, 2, 1)}
	tree1 := New(seg, ids(1))
	tree1.BuildPhase1(2, nil)
	vis1, _ := tree1.Phase2Simple(2, nil)
	if len(vis1) != 1 || len(vis1[0].Spans) != 1 {
		t.Fatalf("single segment must be fully visible: %+v", vis1)
	}
	sp := vis1[0].Spans[0]
	if sp.X1 != 0 || sp.X2 != 2 {
		t.Fatalf("span %+v", sp)
	}
}

func TestVerticalLeafClip(t *testing.T) {
	segs := []geom.Seg2{
		geom.S2(0, 5, 2, 5),  // front shelf at z=5 over [0,2]
		geom.S2(1, 0, 1, 10), // vertical segment at x=1 behind it
	}
	tree := New(segs, ids(2))
	tree.BuildPhase1(1, nil)
	vis, _ := tree.Phase2Simple(1, nil)
	if len(vis[1].Spans) != 1 {
		t.Fatalf("vertical leaf spans: %+v", vis[1].Spans)
	}
	sp := vis[1].Spans[0]
	if sp.X1 != 1 || sp.X2 != 1 || math.Abs(sp.Z1-5) > 1e-9 || math.Abs(sp.Z2-10) > 1e-9 {
		t.Fatalf("vertical span wrong: %+v", sp)
	}
	// Fully hidden vertical segment.
	segs2 := []geom.Seg2{
		geom.S2(0, 50, 2, 50),
		geom.S2(1, 0, 1, 10),
	}
	tree2 := New(segs2, ids(2))
	tree2.BuildPhase1(1, nil)
	vis2, _ := tree2.Phase2Simple(1, nil)
	if len(vis2[1].Spans) != 0 {
		t.Fatalf("hidden vertical should have no spans: %+v", vis2[1].Spans)
	}
}

func TestPhase1WorkersEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	segs := randSegs(r, 40)
	t1 := New(segs, ids(40))
	t1.BuildPhase1(1, nil)
	t8 := New(segs, ids(40))
	t8.BuildPhase1(8, nil)
	for node := range t1.Inter {
		a, b := t1.Inter[node], t8.Inter[node]
		if len(a) != len(b) {
			t.Fatalf("node %d sizes differ: %d vs %d", node, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d piece %d differs", node, i)
			}
		}
	}
}
