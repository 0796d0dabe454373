package profiletree

import (
	"fmt"
	"math/rand"
	"testing"

	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/hull"
	"terrainhsr/internal/persist"
)

// refNode is a node of the reference profile tree: the generic persistent
// treap of package persist, with the aggregate passed as a callback, which
// is how the profile tree was built before it had a treap of its own.
type refNode = persist.Node[envelope.Piece, Agg]

// refOps is the reference profile tree: FromProfile, SplitAtX and Splice
// over persist.Ops, path copying only.
type refOps struct {
	arena *persist.Arena
	h     *hull.Ops
	hulls bool
	p     *persist.Ops[envelope.Piece, Agg]
}

func newRefOps(seed uint64, hulls bool) *refOps {
	arena := persist.NewArena(seed)
	o := &refOps{arena: arena, h: hull.NewOps(arena), hulls: hulls}
	o.p = &persist.Ops[envelope.Piece, Agg]{Arena: arena, Agg: o.agg}
	return o
}

// agg is the reference subtree summary, returned by value.
func (o *refOps) agg(pc envelope.Piece, l, r *refNode) Agg {
	a := Agg{
		X1:   pc.X1,
		X2:   pc.X2,
		ZMin: min(pc.Z1, pc.Z2),
		ZMax: max(pc.Z1, pc.Z2),
	}
	if l != nil {
		a.X1 = l.Agg.X1
		a.ZMin = min(a.ZMin, l.Agg.ZMin)
		a.ZMax = max(a.ZMax, l.Agg.ZMax)
		a.HasGap = a.HasGap || l.Agg.HasGap || pc.X1 > l.Agg.X2+geom.Eps
	}
	if r != nil {
		a.X2 = r.Agg.X2
		a.ZMin = min(a.ZMin, r.Agg.ZMin)
		a.ZMax = max(a.ZMax, r.Agg.ZMax)
		a.HasGap = a.HasGap || r.Agg.HasGap || r.Agg.X1 > pc.X2+geom.Eps
	}
	if o.hulls {
		p1 := geom.Pt2{X: pc.X1, Z: pc.Z1}
		p2 := geom.Pt2{X: pc.X2, Z: pc.Z2}
		lower := hull.Build2(o.h, p1, p2, true)
		upper := hull.Build2(o.h, p1, p2, false)
		if l != nil {
			lower = o.h.MergeDisjoint(l.Agg.Lower, lower)
			upper = o.h.MergeDisjoint(l.Agg.Upper, upper)
		}
		if r != nil {
			lower = o.h.MergeDisjoint(lower, r.Agg.Lower)
			upper = o.h.MergeDisjoint(upper, r.Agg.Upper)
		}
		a.Hulls = &Hulls{Lower: lower, Upper: upper}
	}
	return a
}

// splitAtX is SplitAtX over the reference tree. The pieces' heights come
// from their own endpoints (no edge table).
func (o *refOps) splitAtX(t *refNode, x float64) (*refNode, *refNode) {
	l, r := o.p.SplitBy(t, func(pc envelope.Piece) bool { return pc.X1 < x })
	if l != nil {
		last := persist.Last(l)
		if last.X2 > x+geom.Eps {
			lInit, _ := o.p.SplitRank(l, persist.Size(l)-1)
			zAt := envelope.Edges(nil).ZAt(last, x)
			leftPart := envelope.Piece{X1: last.X1, Z1: last.Z1, X2: x, Z2: zAt, Edge: last.Edge}
			rightPart := envelope.Piece{X1: x, Z1: zAt, X2: last.X2, Z2: last.Z2, Edge: last.Edge}
			if leftPart.Width() > geom.Eps {
				lInit = o.p.Join(lInit, o.p.NewNode(leftPart, nil, nil))
			}
			l = lInit
			if rightPart.Width() > geom.Eps {
				r = o.p.Join(o.p.NewNode(rightPart, nil, nil), r)
			}
		}
	}
	return l, r
}

// splice is Splice over the reference tree.
func (o *refOps) splice(t *refNode, runs []Run) *refNode {
	if len(runs) == 0 {
		return t
	}
	var acc *refNode
	rest := t
	for _, run := range runs {
		left, midRight := o.splitAtX(rest, run.X1)
		_, right := o.splitAtX(midRight, run.X2)
		acc = o.p.Join(acc, left)
		if len(run.Pieces) > 0 {
			acc = o.p.Join(acc, o.p.Build(run.Pieces))
		}
		rest = right
	}
	return o.p.Join(acc, rest)
}

// mirror copies a reference tree into profile-tree nodes for sameNodes:
// pieces, sizes, aggregates and shape (persist keeps priorities private).
func mirror(n *refNode) *Node {
	if n == nil {
		return nil
	}
	return &Node{Val: n.Val, Agg: n.Agg, L: mirror(n.L), R: mirror(n.R), size: int32(persist.Size(n))}
}

// TestProfileTreapMatchesReference drives the same random profiles and
// splice batches through the reference tree and the profile treap, from
// equal arena seeds, in summary and hull mode, path copying and in place.
// After every splice both trees must hold the same nodes in the same shape
// and have charged the same Arena.Allocs. Every other batch first reseeds
// both arenas from a short cycle, as ParallelOS reseeds per task, so new
// nodes repeat the priorities of nodes already in the profile and joins
// meet priority ties.
func TestProfileTreapMatchesReference(t *testing.T) {
	for _, hulls := range []bool{false, true} {
		for _, inPlace := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				r := rand.New(rand.NewSource(seed))
				ref, o := newRefOps(uint64(seed), hulls), NewOps(persist.NewArena(uint64(seed)), hulls)
				o.P.InPlace = inPlace
				base := randProfile(r, 30)
				rt, tr := ref.p.Build(base), o.FromProfile(base)
				check := func(label string) {
					t.Helper()
					label = fmt.Sprintf("hulls=%v inPlace=%v seed %d %s", hulls, inPlace, seed, label)
					if d := sameNodes(mirror(rt), tr.Root); d != "" {
						t.Fatalf("%s: %s", label, d)
					}
					if ref.arena.Allocs != o.Arena.Allocs {
						t.Fatalf("%s: Allocs %d reference, %d treap", label, ref.arena.Allocs, o.Arena.Allocs)
					}
					if err := Validate(tr); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				check("build")
				edge := int32(1000)
				for batch := 0; batch < 120; batch++ {
					lo, hi := tr.Root.Agg.X1, tr.Root.Agg.X2
					var runs []Run
					if batch%2 == 0 {
						runs = randRuns(r, lo, hi, &edge)
					} else {
						runs = randSpliceBatch(r, lo, hi, float64(tr.Size()), &edge)
						cycle := uint64(1 + batch%5)
						ref.arena.Reseed(cycle)
						o.Arena.Reseed(cycle)
					}
					rt, tr = ref.splice(rt, runs), o.Splice(tr, runs)
					check(fmt.Sprintf("batch %d", batch))
				}
			}
		}
	}
}
