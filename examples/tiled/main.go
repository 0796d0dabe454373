// Tiled solving: the massive-terrain path. Build a mountain-range terrain
// too large to want in memory as one solve, partition it into row×col
// tiles, and compute the exact visible scene tile by tile — equivalent to
// the monolithic solve, with peak memory bounded by a band of tiles and
// fully hidden tiles culled without being solved. Also demonstrates
// TiledSolver.SolveMany: a grid of observers over the same tiled terrain.
//
// Run with: go run ./examples/tiled
//
// Prints the tile grid, the visible-piece count and k/n ratio, how many
// tiles were solved vs culled, the final silhouette size, and each
// observer's visible-piece count (statistics only, no files).
package main

import (
	"fmt"
	"log"

	terrainhsr "terrainhsr"
)

func main() {
	// A "massive" terrain: fractal relief plus long occluding mountain
	// ranges. Production sizes are 512x512 and beyond; this example stays
	// small enough for a CI smoke run.
	tr, err := terrainhsr.Generate(terrainhsr.GenParams{
		Kind: "massive", Rows: 160, Cols: 160, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}

	ts, err := terrainhsr.NewTiledSolver(tr, terrainhsr.TileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	bands, cols := ts.TileGrid()
	fmt.Printf("terrain: %d edges in %d triangles, tiled %dx%d (%d tiles)\n",
		tr.NumEdges(), tr.NumTriangles(), bands, cols, bands*cols)

	res, st, err := ts.SolveWithStats(terrainhsr.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("visible scene: %d pieces from %d edges (k/n = %.3f)\n",
		res.K(), res.N(), float64(res.K())/float64(res.N()))
	fmt.Printf("tiles solved: %d, culled behind nearer terrain: %d\n",
		st.TilesSolved, st.TilesCulled)
	fmt.Printf("final silhouette: %d envelope pieces\n", st.SilhouetteSize)

	// The same tiled terrain viewed by a 2x2 grid of perspective observers
	// hovering in front of it: one tiled batch, shared tile partition and
	// arena pools across frames.
	eyes := []terrainhsr.Point{}
	for _, dy := range []float64{60, 120} {
		for _, dz := range []float64{30, 55} {
			eyes = append(eyes, terrainhsr.Point{X: -80, Y: dy, Z: dz})
		}
	}
	frames, err := ts.SolveMany(eyes, terrainhsr.BatchOptions{MinDepth: 1})
	if err != nil {
		log.Fatal(err)
	}
	for i, fr := range frames {
		fmt.Printf("observer %d at (%.0f,%.0f,%.0f): sees %d visible pieces\n",
			i, eyes[i].X, eyes[i].Y, eyes[i].Z, fr.K())
	}
}
