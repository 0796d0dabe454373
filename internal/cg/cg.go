package cg

import (
	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/profiletree"
)

// Relation is one maximal x-interval with a constant visibility relation.
// It is declared beside profiletree.Scratch, which holds the relations of
// a worker's queries.
type Relation = profiletree.Relation

// Stats counts the charged operations of a query.
type Stats struct {
	// Steps is the number of tree nodes visited.
	Steps int64
	// Pruned is the number of subtrees resolved wholesale.
	Pruned int64
	// HullQueries counts tangent searches performed.
	HullQueries int64
	// Crossings is the number of proper segment/profile crossings found.
	Crossings int64
	// MaxDepth tracks the deepest recursion (the query's critical path).
	MaxDepth int
}

// QueryRelations computes the ordered relations of segment s against the
// profile tree over s's span. The segment is a piece of edge edge: heights
// and crossings are taken on the original segments in o.Edges, so a
// clipped s and its whole edge find the same crossings. The segment must
// not be vertical in the image; callers handle vertical segments via
// profiletree.Ops.Eval.
//
// The relations are written into o.Scratch rather than fresh slices, so a
// worker's steady-state queries allocate nothing. The returned slice is
// valid until the next QueryRelations call through o; a caller that keeps
// relations across queries copies them.
func QueryRelations(o *profiletree.Ops, t profiletree.Tree, s geom.Seg2, edge int32) ([]Relation, Stats) {
	s = s.Canon()
	var st Stats
	if s.IsVerticalImage() {
		return nil, st
	}
	sc := &o.Scratch
	sp := edgePiece(s, edge)
	q := query{o: o, s: s, sp: sp, line: o.Edges.Line(sp), rels: sc.Raw[:0]}
	q.visit(t.Root, 1)
	sc.Raw = q.rels
	st = q.st
	rels := stitch(sc.Rels[:0], q.rels, s.A.X, s.B.X)
	sc.Rels = rels
	// Every flip between consecutive relations is one vertex event of the
	// image: a proper crossing or a T-vertex at a jump/gap boundary.
	for i := 1; i < len(rels); i++ {
		if rels[i].Above != rels[i-1].Above {
			st.Crossings++
		}
	}
	return rels, st
}

type query struct {
	o  *profiletree.Ops
	s  geom.Seg2
	sp envelope.Piece
	// line is the query edge's original segment, on which every height of
	// the query is taken.
	line         geom.Seg2
	rels         []Relation
	st           Stats
	properSplits int64
}

// visit performs the pruned in-order traversal.
func (q *query) visit(n *profiletree.Node, depth int) {
	if n == nil {
		return
	}
	a, b := n.Agg.X1, n.Agg.X2
	qlo := geom.Max(a, q.s.A.X)
	qhi := geom.Min(b, q.s.B.X)
	if qhi <= qlo+geom.Eps {
		return
	}
	q.st.Steps++
	if depth > q.st.MaxDepth {
		q.st.MaxDepth = depth
	}
	if above, below, ok := q.resolve(n, qlo, qhi); ok {
		q.st.Pruned++
		_ = below
		q.rels = append(q.rels, Relation{X1: qlo, X2: qhi, Above: above})
		return
	}
	q.visit(n.L, depth+1)
	q.ownPiece(n.Val)
	q.visit(n.R, depth+1)
}

// resolve attempts to classify the whole subtree against the segment.
// Returns (above, below, decidable).
func (q *query) resolve(n *profiletree.Node, qlo, qhi float64) (bool, bool, bool) {
	m := q.line.Slope()
	c0 := q.line.A.Z - m*q.line.A.X
	if q.o.WithHulls && n.Agg.Hulls != nil {
		q.st.HullQueries += 2
		maxH := n.Agg.Upper.ExtremeValue(m) - c0 // max of P - s over vertices
		minH := n.Agg.Lower.ExtremeValue(m) - c0
		if maxH < -geom.Eps {
			// Every profile vertex strictly below the segment's line: the
			// segment clears the subtree (gaps only help).
			return true, false, true
		}
		if minH >= -geom.Eps && !n.Agg.HasGap && qlo >= n.Agg.X1-geom.Eps && qhi <= n.Agg.X2+geom.Eps {
			// The profile is everywhere at or above the segment and covers
			// the whole query window: occluded throughout.
			return false, true, true
		}
		return false, false, false
	}
	// Summary-only mode: z-interval tests.
	sLo, sHi := q.line.ZAt(qlo), q.line.ZAt(qhi)
	sMin, sMax := geom.Min(sLo, sHi), geom.Max(sLo, sHi)
	if sMin > n.Agg.ZMax+geom.Eps {
		return true, false, true
	}
	if sMax < n.Agg.ZMin-geom.Eps && !n.Agg.HasGap && qlo >= n.Agg.X1-geom.Eps && qhi <= n.Agg.X2+geom.Eps {
		return false, true, true
	}
	return false, false, false
}

// ownPiece classifies the segment against one profile piece directly,
// splitting at a proper crossing.
func (q *query) ownPiece(pc envelope.Piece) {
	lo := geom.Max(pc.X1, q.s.A.X)
	hi := geom.Min(pc.X2, q.s.B.X)
	if hi <= lo+geom.Eps {
		return
	}
	q.st.Steps++
	pl := q.o.Edges.Line(pc)
	da := q.line.ZAt(lo) - pl.ZAt(lo)
	db := q.line.ZAt(hi) - pl.ZAt(hi)
	above, aboveEnd := da > geom.Eps, db > geom.Eps
	if above == aboveEnd {
		q.rels = append(q.rels, Relation{X1: lo, X2: hi, Above: above})
		return
	}
	xs, ok := q.o.Edges.CrossX(q.sp, pc)
	if !ok {
		xs = (lo + hi) / 2
	}
	xs = geom.Min(geom.Max(xs, lo), hi)
	q.properSplits++
	q.rels = append(q.rels, Relation{X1: lo, X2: xs, Above: above}, Relation{X1: xs, X2: hi, Above: aboveEnd})
}

// stitch fills coverage holes (profile gaps, where the segment is visible),
// clips to [lo, hi] and merges adjacent relations with equal flags,
// appending the result to out.
func stitch(out, rels []Relation, lo, hi float64) []Relation {
	x := lo
	push := func(r Relation) {
		if r.X2-r.X1 <= geom.Eps {
			return
		}
		if n := len(out); n > 0 && out[n-1].Above == r.Above && r.X1 <= out[n-1].X2+geom.Eps {
			out[n-1].X2 = r.X2
			return
		}
		out = append(out, r)
	}
	for _, r := range rels {
		if r.X1 > x+geom.Eps {
			push(Relation{X1: x, X2: r.X1, Above: true}) // gap: visible
		}
		push(r)
		if r.X2 > x {
			x = r.X2
		}
	}
	if hi > x+geom.Eps {
		push(Relation{X1: x, X2: hi, Above: true})
	}
	return out
}

// VisibleSpans converts the relations of segment s into the visible spans
// (the ClipAbove analogue over the persistent tree), one VisibleSpan per
// relation above the profile.
func VisibleSpans(rels []Relation, s geom.Seg2) []envelope.Span {
	s = s.Canon()
	var out []envelope.Span
	for _, r := range rels {
		if r.Above {
			out = append(out, VisibleSpan(r, s))
		}
	}
	return out
}

// VisibleSpan is the visible span of canonical segment s over relation r's
// x-range. s is a whole edge, so its own heights are its edge's.
func VisibleSpan(r Relation, s geom.Seg2) envelope.Span {
	return envelope.Span{X1: r.X1, Z1: s.ZAt(r.X1), X2: r.X2, Z2: s.ZAt(r.X2)}
}

// VisibleRuns appends to runs the splice runs carrying the visible
// fragments of s, a piece of edge edge, and returns the extended slice. The
// fragments' heights are taken on the edge's segment in o.Edges. A
// run that starts within 1e-9 of the previous run's end extends that run
// instead: the visible material of consecutive profile pieces often
// continues across piece boundaries.
//
// The runs' pieces are carved from o.Scratch.Pieces, not allocated. Passing
// an empty runs slice starts a new batch and recycles the pieces of the
// previous one, so the pieces stay valid until VisibleRuns is next called
// through o with an empty runs slice.
func VisibleRuns(o *profiletree.Ops, runs []profiletree.Run, rels []Relation, s geom.Seg2, edge int32) []profiletree.Run {
	sc := &o.Scratch
	if len(runs) == 0 {
		sc.Pieces = sc.Pieces[:0]
	}
	line := o.Edges.Line(edgePiece(s, edge))
	for _, r := range rels {
		if !r.Above {
			continue
		}
		pc := envelope.Piece{X1: r.X1, Z1: line.ZAt(r.X1), X2: r.X2, Z2: line.ZAt(r.X2), Edge: edge}
		n := len(runs)
		if n == 0 || r.X1 > runs[n-1].X2+1e-9 {
			sc.Pieces = append(sc.Pieces, pc)
			end := len(sc.Pieces)
			// Capacity-capped, so no append through a run can overwrite
			// the pieces of the next one.
			runs = append(runs, profiletree.Run{X1: r.X1, X2: r.X2, Pieces: sc.Pieces[end-1 : end : end]})
			continue
		}
		last := &runs[n-1]
		last.X2 = r.X2
		if k := len(last.Pieces); k > 0 && len(sc.Pieces) > 0 && &last.Pieces[k-1] == &sc.Pieces[len(sc.Pieces)-1] {
			// The last run's pieces are the scratch's tail: extend them in
			// place.
			sc.Pieces = append(sc.Pieces, pc)
			end := len(sc.Pieces)
			last.Pieces = sc.Pieces[end-k-1 : end : end]
		} else {
			last.Pieces = append(last.Pieces[:k:k], pc)
		}
	}
	return runs
}

// edgePiece is segment s as a piece of edge edge.
func edgePiece(s geom.Seg2, edge int32) envelope.Piece {
	s = s.Canon()
	return envelope.Piece{X1: s.A.X, Z1: s.A.Z, X2: s.B.X, Z2: s.B.Z, Edge: edge}
}
