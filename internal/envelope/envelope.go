package envelope

import (
	"fmt"
	"math"
	"sort"

	"terrainhsr/internal/geom"
)

// NoEdge marks a piece with no owning input edge (used by synthetic tests).
const NoEdge = int32(-1)

// Piece is one maximal linear run of a profile: the graph of a linear
// function over [X1, X2] owned by input edge Edge.
type Piece struct {
	X1, Z1 float64
	X2, Z2 float64
	Edge   int32
}

// Seg returns the piece as an image segment.
func (p Piece) Seg() geom.Seg2 {
	return geom.Seg2{A: geom.Pt2{X: p.X1, Z: p.Z1}, B: geom.Pt2{X: p.X2, Z: p.Z2}}
}

// ZAt evaluates the piece's supporting line at x.
func (p Piece) ZAt(x float64) float64 {
	if p.X2 == p.X1 {
		return p.Z1
	}
	t := (x - p.X1) / (p.X2 - p.X1)
	return p.Z1 + t*(p.Z2-p.Z1)
}

// Width is the horizontal extent of the piece.
func (p Piece) Width() float64 { return p.X2 - p.X1 }

// Profile is an upper envelope: pieces sorted by X1 with disjoint interiors.
type Profile []Piece

// Edges is the table of original image segments behind a profile's pieces:
// entry e is the canonical (Canon) projection of the edge whose pieces
// carry Edge e. Pieces are clipped copies of their edge, and a clipped
// piece's endpoints carry the roundoff of however its envelope was built.
// Evaluating heights and crossings on the table's segments instead makes
// every value a function of the edges alone, so every algorithm that
// builds the same envelope emits the same bytes.
//
// A piece whose Edge does not index the table (NoEdge, or any id under a
// nil table) is evaluated on its own endpoints: profiles that come from no
// edge table, such as the tile band front, use the nil Edges.
type Edges []geom.Seg2

// Line returns the segment whose supporting line carries pc: its edge's
// original segment, or pc itself when pc.Edge does not index e.
func (e Edges) Line(pc Piece) geom.Seg2 {
	if uint(pc.Edge) < uint(len(e)) {
		return e[pc.Edge]
	}
	return pc.Seg()
}

// ZAt evaluates pc's edge at x: the original segment's supporting line
// when pc.Edge indexes e, else pc's own. Loops that evaluate one piece
// repeatedly take its Line once instead; both give the same float64 on a
// piece of positive width.
func (e Edges) ZAt(pc Piece, x float64) float64 {
	if uint(pc.Edge) < uint(len(e)) {
		return e[pc.Edge].ZAt(x)
	}
	return pc.ZAt(x)
}

// CrossX returns the x at which the supporting lines of pa's and pb's
// edges cross, and ok=false if they are parallel within tolerance. When
// both pieces index e the original edges are intersected in a fixed
// argument order, lower edge id first, so the crossing of two edges is one
// float64 whichever profile, clipped piece or argument order it is
// computed from. Otherwise it is geom.LineIntersectX of the two pieces'
// lines, in the order given.
func (e Edges) CrossX(pa, pb Piece) (x float64, ok bool) {
	if uint(pa.Edge) >= uint(len(e)) || uint(pb.Edge) >= uint(len(e)) {
		return geom.LineIntersectX(e.Line(pa), e.Line(pb))
	}
	if pb.Edge < pa.Edge {
		pa, pb = pb, pa
	}
	a, b := e[pa.Edge], e[pb.Edge]
	x, ok = geom.LineIntersectX(a, b)
	if !ok {
		return 0, false
	}
	// Edges that share a vertex cross exactly there, but the formula lands
	// a few ULPs off it, on one side or the other of the interval a sweep
	// clamps it to. Snap to an endpoint within Eps so that the crossing is
	// the vertex itself whichever interval it is computed in.
	tol := geom.Eps * math.Max(1, math.Abs(x))
	for _, v := range [4]float64{a.A.X, a.B.X, b.A.X, b.B.X} {
		if math.Abs(x-v) <= tol {
			return v, true
		}
	}
	return x, true
}

// FromSegment returns the profile consisting of the single segment s
// attributed to edge. Segments that are vertical in the image contribute
// nothing to an upper envelope and yield an empty profile.
func FromSegment(s geom.Seg2, edge int32) Profile { return appendSegment(nil, s, edge) }

// appendSegment appends FromSegment(s, edge)'s piece, if any, to dst.
func appendSegment(dst Profile, s geom.Seg2, edge int32) Profile {
	s = s.Canon()
	if s.IsVerticalImage() {
		return dst
	}
	return append(dst, Piece{X1: s.A.X, Z1: s.A.Z, X2: s.B.X, Z2: s.B.Z, Edge: edge})
}

// Size returns the number of pieces.
func (p Profile) Size() int { return len(p) }

// XRange returns the horizontal extent covered (possibly with gaps inside).
func (p Profile) XRange() (lo, hi float64, ok bool) {
	if len(p) == 0 {
		return 0, 0, false
	}
	return p[0].X1, p[len(p)-1].X2, true
}

// Eval returns the profile value at x, evaluated on the pieces' edges in e,
// and whether x is covered by a piece. At a breakpoint shared by two pieces
// the right piece wins (right-continuous convention), except at the global
// right end where the last piece's value is returned.
func (p Profile) Eval(x float64, e Edges) (z float64, covered bool) {
	i := sort.Search(len(p), func(i int) bool { return p[i].X2 >= x })
	if i == len(p) {
		return 0, false
	}
	// Prefer the right piece at an internal shared breakpoint.
	if i+1 < len(p) && p[i+1].X1 <= x {
		i++
	}
	pc := p[i]
	if x < pc.X1 || x > pc.X2 {
		return 0, false
	}
	return e.ZAt(pc, x), true
}

// CoversAbove reports whether the profile is defined over all of [x1, x2]
// with no gaps and with value at least z everywhere on it. It is the
// occlusion test behind tile culling: a tile whose bounding box satisfies
// CoversAbove against the accumulated front envelope cannot contribute any
// visible piece and need not be solved at all.
func (p Profile) CoversAbove(x1, x2, z float64) bool {
	if x2 <= x1+geom.Eps {
		return true
	}
	i := sort.Search(len(p), func(i int) bool { return p[i].X2 >= x1 })
	x := x1
	for ; i < len(p); i++ {
		pc := p[i]
		if pc.X1 > x+geom.Eps {
			return false // gap before the next piece
		}
		lo, hi := math.Max(pc.X1, x1), math.Min(pc.X2, x2)
		if hi > lo && math.Min(pc.ZAt(lo), pc.ZAt(hi)) < z-geom.Eps {
			return false // the envelope dips below z on [lo, hi]
		}
		x = pc.X2
		if x >= x2-geom.Eps {
			return true
		}
	}
	return false // ran out of pieces before reaching x2
}

// Validate checks the structural invariants: positive-width pieces sorted by
// X1 with non-overlapping interiors, and finite coordinates.
func (p Profile) Validate() error {
	for i, pc := range p {
		if !(pc.X2 > pc.X1) {
			return fmt.Errorf("piece %d has non-positive width: [%v,%v]", i, pc.X1, pc.X2)
		}
		if math.IsNaN(pc.Z1) || math.IsNaN(pc.Z2) || math.IsInf(pc.Z1, 0) || math.IsInf(pc.Z2, 0) {
			return fmt.Errorf("piece %d has non-finite z", i)
		}
		if i > 0 && pc.X1 < p[i-1].X2-geom.Eps {
			return fmt.Errorf("piece %d overlaps previous: %v < %v", i, pc.X1, p[i-1].X2)
		}
	}
	return nil
}

// appendPiece appends a piece to dst, coalescing it with the previous piece
// when they form one maximal linear run of the same edge.
func appendPiece(dst Profile, pc Piece) Profile {
	if pc.Width() <= geom.Eps {
		return dst
	}
	if n := len(dst); n > 0 {
		last := &dst[n-1]
		if last.Edge == pc.Edge &&
			math.Abs(last.X2-pc.X1) <= geom.Eps &&
			math.Abs(last.Z2-pc.Z1) <= geom.Eps {
			// Same slope within tolerance: extend the run.
			s1 := (last.Z2 - last.Z1) / (last.X2 - last.X1)
			s2 := (pc.Z2 - pc.Z1) / (pc.X2 - pc.X1)
			if math.Abs(s1-s2) <= 1e-7*(1+math.Abs(s1)+math.Abs(s2)) {
				last.X2, last.Z2 = pc.X2, pc.Z2
				return dst
			}
		}
	}
	return append(dst, pc)
}

// Stats summarizes a merge for the PRAM cost accounting and for the
// output-sensitivity experiments.
type Stats struct {
	// Crossings is the number of proper crossings between the two inputs
	// discovered during the merge. In phase 2 these are exactly the new
	// vertices of the visible image.
	Crossings int
	// Steps is the number of elementary sweep intervals processed
	// (the merge's work, up to a constant).
	Steps int
	// MaxChunk is the largest per-chunk step count of a parallel merge:
	// its critical path with unbounded processors (zero for sequential
	// merges).
	MaxChunk int
}

// Merge returns the upper envelope (pointwise maximum) of a and b, whose
// pieces' edges are in e. Where the two profiles tie, a wins: callers pass
// the front profile first so that touching does not count as the back
// profile becoming visible.
func (e Edges) Merge(a, b Profile) Profile {
	out, _ := e.MergeStats(a, b)
	return out
}

// MergeStats is Merge with sweep statistics.
func (e Edges) MergeStats(a, b Profile) (Profile, Stats) { return e.MergeStatsInto(nil, a, b) }

// MergeStatsInto is MergeStats writing the merged profile over dst's
// storage, which it grows as needed; a caller that merges into the same
// buffer in a loop allocates nothing once it has grown. dst must not share
// storage with a or b.
func (e Edges) MergeStatsInto(dst, a, b Profile) (Profile, Stats) {
	var st Stats
	out := dst[:0]
	if cap(out) < len(a)+len(b) {
		out = make(Profile, 0, len(a)+len(b))
	}
	if len(a) == 0 {
		return append(out, b...), st
	}
	if len(b) == 0 {
		return append(out, a...), st
	}
	var i, j int
	// Sweep over elementary intervals delimited by the union of breakpoints.
	x := math.Min(a[0].X1, b[0].X1)
	for i < len(a) || j < len(b) {
		st.Steps++
		// Advance past pieces that end at or before x.
		if i < len(a) && a[i].X2 <= x+geom.Eps {
			i++
			continue
		}
		if j < len(b) && b[j].X2 <= x+geom.Eps {
			j++
			continue
		}
		if i >= len(a) && j >= len(b) {
			break
		}
		// Determine the current active pieces (if their span contains x).
		var pa, pb *Piece
		if i < len(a) && a[i].X1 <= x+geom.Eps {
			pa = &a[i]
		}
		if j < len(b) && b[j].X1 <= x+geom.Eps {
			pb = &b[j]
		}
		// Next breakpoint: nearest piece start or end strictly right of x.
		next := math.Inf(1)
		if i < len(a) {
			if a[i].X1 > x+geom.Eps {
				next = math.Min(next, a[i].X1)
			} else {
				next = math.Min(next, a[i].X2)
			}
		}
		if j < len(b) {
			if b[j].X1 > x+geom.Eps {
				next = math.Min(next, b[j].X1)
			} else {
				next = math.Min(next, b[j].X2)
			}
		}
		if math.IsInf(next, 1) {
			break
		}
		lo, hi := x, next
		switch {
		case pa == nil && pb == nil:
			// Gap on both: skip forward.
		case pa != nil && pb == nil:
			out = appendPiece(out, clip(e.Line(*pa), pa.Edge, lo, hi))
		case pa == nil && pb != nil:
			out = appendPiece(out, clip(e.Line(*pb), pb.Edge, lo, hi))
		default:
			out = e.emitMax(out, *pa, *pb, lo, hi, &st)
		}
		x = next
	}
	return out, st
}

// clip returns the piece of edge id on line restricted to [lo, hi].
func clip(line geom.Seg2, id int32, lo, hi float64) Piece {
	return Piece{X1: lo, Z1: line.ZAt(lo), X2: hi, Z2: line.ZAt(hi), Edge: id}
}

// emitMax appends the pointwise maximum of pieces pa (front, wins ties) and
// pb over [lo, hi], splitting at a crossing if the order changes.
func (e Edges) emitMax(out Profile, pa, pb Piece, lo, hi float64, st *Stats) Profile {
	la, lb := e.Line(pa), e.Line(pb)
	da := la.ZAt(lo) - lb.ZAt(lo)
	db := la.ZAt(hi) - lb.ZAt(hi)
	aAtLo := da >= -geom.Eps // front wins ties
	aAtHi := db >= -geom.Eps
	if aAtLo == aAtHi {
		// Two lines cross at most once, so a top that holds at both ends
		// holds throughout the interval.
		if !aAtLo {
			return appendPiece(out, clip(lb, pb.Edge, lo, hi))
		}
		return appendPiece(out, clip(la, pa.Edge, lo, hi))
	}
	// Order changes: find the crossing x*. A sign change of the linear
	// difference implies the crossing lies within [lo, hi] mathematically,
	// so an xs outside the interval is pure roundoff — clamp it (a clamped
	// crossing at an endpoint yields a zero-width piece that appendPiece
	// drops, leaving the whole interval to the other side).
	xs, ok := e.CrossX(pa, pb)
	if !ok {
		// Numerically parallel yet signs flipped within Eps: give the whole
		// interval to whichever piece is on top at the endpoint where the
		// separation is widest.
		bTop := db < 0
		if math.Abs(da) >= math.Abs(db) {
			bTop = da < 0
		}
		if bTop {
			return appendPiece(out, clip(lb, pb.Edge, lo, hi))
		}
		return appendPiece(out, clip(la, pa.Edge, lo, hi))
	}
	xs = math.Min(math.Max(xs, lo), hi)
	st.Crossings++
	if !aAtLo {
		out = appendPiece(out, clip(lb, pb.Edge, lo, xs))
		return appendPiece(out, clip(la, pa.Edge, xs, hi))
	}
	out = appendPiece(out, clip(la, pa.Edge, lo, xs))
	return appendPiece(out, clip(lb, pb.Edge, xs, hi))
}

// BuildUpperEnvelope computes the upper envelope of a set of image segments
// by divide-and-conquer merging (the sequential realization of Lemma 3.1).
// Edge attribution uses the segment indices offset by base, so segs[i] is
// edge base+i of e (or any segments under a nil e).
func (e Edges) BuildUpperEnvelope(segs []geom.Seg2, base int32) Profile {
	return e.BuildUpperEnvelopeInto(nil, segs, base, new(BuildScratch))
}

// BuildScratch is the working memory of BuildUpperEnvelopeInto: per level of
// the divide-and-conquer, the ping-pong pair of profiles that holds the two
// halves' envelopes while they are merged. The zero value is ready to use,
// and a BuildScratch keeps its capacity from one build to the next.
type BuildScratch struct {
	levels [][2]Profile
}

// BuildUpperEnvelopeInto is BuildUpperEnvelope writing the envelope over
// dst's storage and its intermediate envelopes into sc, so a caller that
// builds into the same buffers in a loop allocates nothing once they have
// grown. It returns exactly BuildUpperEnvelope's pieces and edge ids. dst
// must not share storage with sc.
func (e Edges) BuildUpperEnvelopeInto(dst Profile, segs []geom.Seg2, base int32, sc *BuildScratch) Profile {
	return e.build(dst, segs, base, sc, 0)
}

// build writes the envelope of segs over dst, keeping the halves' envelopes
// in sc's pair at level depth. It splits where the recursive definition
// splits, so every merge sees the same inputs.
func (e Edges) build(dst Profile, segs []geom.Seg2, base int32, sc *BuildScratch, depth int) Profile {
	switch len(segs) {
	case 0:
		return dst[:0]
	case 1:
		return appendSegment(dst[:0], segs[0], base)
	}
	if depth == len(sc.levels) {
		sc.levels = append(sc.levels, [2]Profile{})
	}
	// Deeper levels may grow sc.levels, so index it afresh after each call.
	mid := len(segs) / 2
	l := e.build(sc.levels[depth][0], segs[:mid], base, sc, depth+1)
	sc.levels[depth][0] = l
	r := e.build(sc.levels[depth][1], segs[mid:], base+int32(mid), sc, depth+1)
	sc.levels[depth][1] = r
	out, _ := e.MergeStatsInto(dst, l, r)
	return out
}
