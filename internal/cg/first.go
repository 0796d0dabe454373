package cg

import (
	"terrainhsr/internal/geom"
	"terrainhsr/internal/profiletree"
)

// Crossing is one intersection of a query segment with the profile.
type Crossing struct {
	// X is the crossing coordinate.
	X float64
	// Z is the height at the crossing.
	Z float64
	// Entering is true when the segment passes from occluded to visible
	// (left to right); false when it dives below the profile.
	Entering bool
}

// FirstCrossing returns the leftmost crossing of s with the profile at or
// after fromX, in the sense of Lemma 3.2's "detect the first intersection":
// the first point where the segment's visibility state changes. ok is false
// when the segment's relation to the profile never changes after fromX.
// The segment is edge edge, as in QueryRelations.
func FirstCrossing(o *profiletree.Ops, t profiletree.Tree, s geom.Seg2, edge int32, fromX float64) (Crossing, bool) {
	rels, _ := QueryRelations(o, t, s, edge)
	for i := 1; i < len(rels); i++ {
		if rels[i].X1 < fromX {
			continue
		}
		if rels[i].Above != rels[i-1].Above {
			x := rels[i].X1
			return Crossing{X: x, Z: o.Edges.Line(edgePiece(s, edge)).ZAt(x), Entering: rels[i].Above}, true
		}
	}
	return Crossing{}, false
}

// AllCrossings returns every visibility transition of s against the
// profile, left to right — the full output of Lemma 3.2's recursion
// ("split the segment around the middle diagonal ... and recurse").
func AllCrossings(o *profiletree.Ops, t profiletree.Tree, s geom.Seg2, edge int32) []Crossing {
	rels, _ := QueryRelations(o, t, s, edge)
	var out []Crossing
	line := o.Edges.Line(edgePiece(s, edge))
	for i := 1; i < len(rels); i++ {
		if rels[i].Above != rels[i-1].Above {
			x := rels[i].X1
			out = append(out, Crossing{X: x, Z: line.ZAt(x), Entering: rels[i].Above})
		}
	}
	return out
}
