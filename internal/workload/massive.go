package workload

import (
	"math"
	"math/rand"

	"terrainhsr/internal/terrain"
)

// The massive-terrain scenario: the workload the tiled solver exists for.
// Real large-scale DEMs are dominated by long mountain ranges that occlude
// the basins behind them, so a faithful synthetic stand-in needs structure
// at the terrain scale, not just per-cell noise: fractal relief plus a few
// sinuous ranges running across the viewing direction. The ranges make
// whole regions of the far terrain invisible, which is exactly what the
// tiled engine's silhouette culling exploits.

// massiveHeight builds the height function for Kind Massive: diamond-square
// relief (amplitude Params.Amplitude) with meandering mountain ranges
// superimposed, each a Gaussian crest of height about Params.RidgeHeight
// whose crest line wanders across the columns.
func massiveHeight(p Params, r *rand.Rand) terrain.HeightFn {
	base := diamondSquare(maxInt(p.Rows, p.Cols), p.Amplitude, r)
	type crest struct {
		row, amp, sigma      float64
		meander, freq, phase float64
	}
	ranges := maxInt(2, maxInt(p.Rows, p.Cols)/96)
	crests := make([]crest, ranges)
	for k := range crests {
		crests[k] = crest{
			// Spread the ranges over the depth axis, jittered within a slot.
			row:     (float64(k) + 0.2 + 0.6*r.Float64()) / float64(ranges) * float64(p.Rows),
			amp:     p.RidgeHeight * (0.7 + 0.6*r.Float64()),
			sigma:   2 + 3*r.Float64(),
			meander: float64(p.Rows) * (0.02 + 0.05*r.Float64()),
			freq:    2 * math.Pi * (1 + 2*r.Float64()) / float64(p.Cols+1),
			phase:   2 * math.Pi * r.Float64(),
		}
	}
	return func(i, j int) float64 {
		z := base[i][j]
		for _, c := range crests {
			d := float64(i) - (c.row + c.meander*math.Sin(c.freq*float64(j)+c.phase))
			z += c.amp * math.Exp(-d*d/(2*c.sigma*c.sigma))
		}
		return z
	}
}
