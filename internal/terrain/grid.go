package terrain

import (
	"fmt"
	"math"

	"terrainhsr/internal/geom"
)

// HeightFn gives the terrain height at grid cell (i, j); i indexes the x
// (depth) axis, j the y (image-horizontal) axis.
type HeightFn func(i, j int) float64

// Grid describes a regular-grid TIN: (Rows+1) x (Cols+1) vertices at spacing
// Dx, Dy with heights from H, each cell split into two triangles. Rows run
// along the viewing (x) axis, Cols across it.
type Grid struct {
	Rows, Cols int
	Dx, Dy     float64
	H          HeightFn
	// AlternateDiagonals flips the diagonal on odd cells, producing a
	// "union jack"-like pattern that avoids long aligned diagonals. Such a
	// grid does not follow the canonical triangulation, so Build leaves it
	// without grid metadata (IsGrid is false) and it cannot be tiled.
	AlternateDiagonals bool
}

// Build constructs the TIN for the grid.
func (g Grid) Build() (*Terrain, error) {
	if g.Rows < 1 || g.Cols < 1 {
		return nil, fmt.Errorf("terrain: grid must have at least one cell, got %dx%d", g.Rows, g.Cols)
	}
	if g.Dx <= 0 || g.Dy <= 0 {
		return nil, fmt.Errorf("terrain: grid spacing must be positive")
	}
	if g.H == nil {
		return nil, fmt.Errorf("terrain: grid height function is nil")
	}
	nr, nc := g.Rows+1, g.Cols+1
	verts := make([]geom.Pt3, 0, nr*nc)
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			z := g.H(i, j)
			if math.IsNaN(z) || math.IsInf(z, 0) {
				// DEM nodata and upstream arithmetic bugs surface here, at
				// construction, instead of corrupting a solve: every solver
				// assumes finite heights.
				return nil, fmt.Errorf("terrain: grid height at (%d,%d) is non-finite (%v); fill nodata before building", i, j, z)
			}
			verts = append(verts, geom.Pt3{
				X: float64(i) * g.Dx,
				Y: float64(j) * g.Dy,
				Z: z,
			})
		}
	}
	vid := func(i, j int) int32 { return int32(i*nc + j) }
	tris := make([][3]int32, 0, 2*g.Rows*g.Cols)
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			a := vid(i, j)
			b := vid(i+1, j)
			c := vid(i+1, j+1)
			d := vid(i, j+1)
			if g.AlternateDiagonals && (i+j)%2 == 1 {
				tris = append(tris, [3]int32{a, b, d}, [3]int32{b, c, d})
			} else {
				tris = append(tris, [3]int32{a, b, c}, [3]int32{a, c, d})
			}
		}
	}
	t, err := New(verts, tris)
	if err != nil {
		return nil, err
	}
	if !g.AlternateDiagonals {
		t.GridRows, t.GridCols = g.Rows, g.Cols
	}
	return t, nil
}

// EdgeCountForGrid predicts the number of edges of a grid TIN, handy for
// sizing benchmarks: E = V + F - 1 - 1 (Euler, one outer face).
func EdgeCountForGrid(rows, cols int) int {
	v := (rows + 1) * (cols + 1)
	f := 2 * rows * cols
	return v + f - 1
}
