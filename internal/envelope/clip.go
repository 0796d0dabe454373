package envelope

import (
	"math"

	"terrainhsr/internal/geom"
)

// Span is a maximal visible portion of an input segment: the part of the
// segment between X1 and X2 that lies strictly above the occluding profile
// (or over a gap in it).
type Span struct {
	X1, Z1 float64
	X2, Z2 float64
}

// Width is the horizontal extent of the span.
func (s Span) Width() float64 { return s.X2 - s.X1 }

// ClipResult reports the visible spans of a segment against a profile along
// with the crossing count (each crossing is a vertex of the final image when
// the profile is the segment's prefix envelope).
type ClipResult struct {
	Spans     []Span
	Crossings int
	Steps     int
}

// ClipAbove computes the portions of segment s, which is edge edge of e,
// that lie strictly above profile p. Ties (s touching p) count as occluded,
// matching the Merge convention that the front profile wins. Heights and
// crossings are taken on the edges in e, and s's own spans on s itself, so
// s should be e's segment when edge indexes e.
//
// This is the operation performed at every PCT leaf in phase 2 (clipping an
// edge against its prefix profile P_{i-1}) and at every step of the
// sequential algorithm of Reif and Sen.
func (e Edges) ClipAbove(s geom.Seg2, edge int32, p Profile) ClipResult {
	var res ClipResult
	s = s.Canon()
	if s.IsVerticalImage() {
		return res
	}
	sp := Piece{X1: s.A.X, Z1: s.A.Z, X2: s.B.X, Z2: s.B.Z, Edge: edge}

	// Locate the first profile piece that could overlap s.
	i := 0
	for i < len(p) && p[i].X2 <= sp.X1+geom.Eps {
		i++
	}
	x := sp.X1
	var cur *Span // open visible span under construction
	openAt := func(x0 float64) {
		res.Spans = append(res.Spans, Span{X1: x0, Z1: sp.ZAt(x0)})
		cur = &res.Spans[len(res.Spans)-1]
	}
	closeAt := func(x1 float64) {
		cur.X2, cur.Z2 = x1, sp.ZAt(x1)
		if cur.Width() <= geom.Eps {
			res.Spans = res.Spans[:len(res.Spans)-1]
		}
		cur = nil
	}

	for x < sp.X2-geom.Eps {
		res.Steps++
		// Current profile piece covering x, if any.
		var pc *Piece
		if i < len(p) && p[i].X1 <= x+geom.Eps {
			pc = &p[i]
		}
		// Next event: end of s, start or end of the current/next piece.
		next := sp.X2
		if i < len(p) {
			if p[i].X1 > x+geom.Eps {
				next = math.Min(next, p[i].X1)
			} else {
				next = math.Min(next, p[i].X2)
			}
		}
		if pc == nil {
			// Over a gap: s is visible throughout.
			if cur == nil {
				openAt(x)
			}
		} else {
			da := sp.ZAt(x) - e.ZAt(*pc, x)
			db := sp.ZAt(next) - e.ZAt(*pc, next)
			above := da > geom.Eps
			aboveEnd := db > geom.Eps
			if above == aboveEnd {
				if above && cur == nil {
					openAt(x)
				} else if !above && cur != nil {
					res.Crossings++ // s dives below at x (piece boundary)
					closeAt(x)
				}
			} else {
				xs, ok := e.CrossX(sp, *pc)
				if !ok {
					xs = (x + next) / 2
				}
				xs = math.Min(math.Max(xs, x), next)
				res.Crossings++
				if above {
					// Visible then occluded.
					if cur == nil {
						openAt(x)
					}
					closeAt(xs)
				} else {
					// Occluded then visible.
					if cur != nil {
						closeAt(x)
					}
					openAt(xs)
				}
			}
		}
		if pc != nil && next >= pc.X2-geom.Eps {
			i++
		}
		x = next
	}
	if cur != nil {
		closeAt(sp.X2)
	}
	return res
}
