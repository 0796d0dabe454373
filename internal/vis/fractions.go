package vis

import (
	"math"

	"terrainhsr/internal/hsr"
	"terrainhsr/internal/terrain"
)

// EdgeVisibility is the per-edge visibility summary used by viewshed-style
// analyses: how much of each terrain edge the viewer actually sees.
type EdgeVisibility struct {
	Edge int32
	// VisibleLength and TotalLength are image-plane lengths; for edges
	// seen end-on the "length" is the visible z-extent.
	VisibleLength, TotalLength float64
	// Fraction is VisibleLength/TotalLength in [0, 1].
	Fraction float64
}

// EdgeVisibilityFractions computes, for every terrain edge, the fraction of
// its image-plane projection that is visible. Edges completely hidden get
// Fraction 0 and are included.
func EdgeVisibilityFractions(t *terrain.Terrain, res *hsr.Result) []EdgeVisibility {
	visLen := make(map[int32]float64)
	for _, p := range res.Pieces {
		dx := p.Span.X2 - p.Span.X1
		dz := p.Span.Z2 - p.Span.Z1
		visLen[p.Edge] += math.Hypot(dx, dz)
	}
	out := make([]EdgeVisibility, t.NumEdges())
	for e := 0; e < t.NumEdges(); e++ {
		s := t.EdgeImageSeg(e)
		total := math.Hypot(s.B.X-s.A.X, s.B.Z-s.A.Z)
		ev := EdgeVisibility{Edge: int32(e), TotalLength: total, VisibleLength: visLen[int32(e)]}
		if total > 0 {
			ev.Fraction = math.Min(ev.VisibleLength/total, 1)
		} else if ev.VisibleLength > 0 {
			ev.Fraction = 1
		}
		out[e] = ev
	}
	return out
}
