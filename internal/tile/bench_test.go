package tile_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"terrainhsr/internal/dem"
	"terrainhsr/internal/engine"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/tile"
)

// coldRidge builds the terrain of hsrperf's viewshed-cold workload: its
// 97x97-sample ridge DEM (gentle relief rising away from the viewer, cut a
// sixth of the way in by a tall wall with three notches), drawn from the
// workload's terrain seed and ingested like the store's finest level. It
// repeats hsrperf's ridgeDEM draw for draw, and nothing checks that the two
// stay in step (ROADMAP item 4 records moving both onto one generator).
func coldRidge(tb testing.TB) *terrain.Terrain {
	tb.Helper()
	const n = 97
	r := rand.New(rand.NewSource(1))
	wall := n / 6
	notch := make([]bool, n)
	for c := 0; c < 3; c++ {
		at := r.Intn(n - 12)
		for j := at; j < at+8; j++ {
			notch[j] = true
		}
	}
	f1, f2, ph := 0.15+0.1*r.Float64(), 0.2+0.1*r.Float64(), r.Float64()*math.Pi
	var asc strings.Builder
	fmt.Fprintf(&asc, "ncols %d\nnrows %d\ncellsize 1\nNODATA_value -9999\n", n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h := 1.5*math.Sin(f1*float64(i)+ph)*math.Cos(f2*float64(j)) + 0.02*float64(i) + 0.3*r.Float64()
			if i == wall {
				h = 14
				if notch[j] {
					h = 4
				}
			}
			asc.WriteString(strconv.FormatFloat(h, 'f', 3, 64))
			asc.WriteByte(' ')
		}
		asc.WriteByte('\n')
	}
	d, err := dem.ParseASC(strings.NewReader(asc.String()))
	if err != nil {
		tb.Fatal(err)
	}
	tt, err := d.ToTerrain(0)
	if err != nil {
		tb.Fatal(err)
	}
	return tt
}

// BenchmarkTileSolve times one tiled solve of a viewshed-cold request —
// one eye of the workload's observer grid over its ridge, on the band
// partition its 24,000-byte residency budget gives (engine.OutOfCoreSpec),
// all CPUs — with the paper's parallel kernel and with sequential-tree in
// every tile. Both kernels emit the same bytes; the planner runs
// sequential-tree in the tiles of a parallel request.
func BenchmarkTileSolve(b *testing.B) {
	view := &geom.PerspectiveTransform{Eye: geom.Pt3{X: -3, Y: 46, Z: 2}}
	vt, err := coldRidge(b).TransformShared(view.Apply)
	if err != nil {
		b.Fatal(err)
	}
	part, err := tile.NewPartition(vt.GridRows, vt.GridCols, engine.OutOfCoreSpec(vt.GridRows, vt.GridCols, 24000))
	if err != nil {
		b.Fatal(err)
	}
	for _, kernel := range []string{engine.AlgoParallel, engine.AlgoSequentialTree} {
		b.Run("kernel="+kernel, func(b *testing.B) {
			solve := engine.TileSolver(kernel)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := tile.Solve(tile.Resident{T: vt}, part, solve, tile.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
