package tile

import (
	"fmt"
	"math"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/terrain"
)

// This file holds the two vertex lattices a banded solve runs over. Solve
// reads grid geometry only through the Lattice methods, so the band loop,
// the per-tile solve and the sub-terrain extractor exist once, whether the
// heights are resident or paged.
//
// Both lattices describe the (R+1) x (C+1) vertex lattice of an R x C cell
// grid in terrain.Grid's canonical triangulation, which is what lets global
// edge ids and owners come from the closed-form gridEdge on both. Bit
// identity between them is a contract, not an accident. The canonical y of
// a vertex is height-independent under every transform the library applies
// (grid build, plan shear, perspective divide), so halos and cull boxes come
// from a per-band Y table computed without paging anything. Paged vertices
// are pushed through syntactically identical floating-point expressions
// (see PagedGrid.vertex), so they equal the resident vertex table's.

// Lattice is the grid geometry a banded solve reads. It has exactly two
// implementations: Resident, the vertex table of an in-memory grid terrain,
// and *PagedGrid, closed-form plan coordinates over paged heights. All
// coordinates are vertex (sample) indices and rectangles are inclusive.
type Lattice interface {
	// check validates the lattice against the partition it is solved with.
	check(p *Partition) error
	// y returns the canonical y (image x) of vertex (i, j) without reading
	// its height.
	y(i, j int) (float64, error)
	// zBound returns an upper bound on the transformed height of every
	// vertex of [r0, r1] x [c0, c1]; ok=false means no bound is known (the
	// rectangle must then be treated as unboundedly tall).
	zBound(r0, r1, c0, c1 int) (z float64, ok bool)
	// vertices makes the vertices of [r0, r1] x [c0, c1] available and
	// returns a reader of them valid until the next retire at or behind r1.
	vertices(r0, r1, c0, c1 int) (vertexReader, error)
	// retire tells the lattice that vertex rows < row no longer influence
	// the solve.
	retire(row int)
	// meter reads the cumulative paging meter (zero when unmetered).
	meter() meterReading
	// worldBox bounds the untransformed vertex rectangle [r0, r1] x
	// [c0, c1] (see TileBounds).
	worldBox(r0, r1, c0, c1 int) WorldBox
}

// vertexReader reads the vertices a Lattice made available.
type vertexReader interface {
	vertex(i, j int) (geom.Pt3, error)
}

// Resident is the lattice of an in-memory grid terrain, read in place. T
// may be any terrain whose IsGrid holds: one built by terrain.Grid or a
// vertex-only transform of one, such as a perspective frame, whose vertex
// coordinates are not closed-form.
type Resident struct{ T *terrain.Terrain }

func (r Resident) check(p *Partition) error {
	t := r.T
	if t == nil || !t.IsGrid() {
		return fmt.Errorf("tile: terrain is not a grid (build it with terrain.Grid or terrainhsr.NewGridTerrain/Generate)")
	}
	if t.GridRows != p.Rows || t.GridCols != p.Cols {
		return fmt.Errorf("tile: partition is %dx%d cells but terrain is %dx%d", p.Rows, p.Cols, t.GridRows, t.GridCols)
	}
	return nil
}

func (r Resident) at(i, j int) geom.Pt3 { return r.T.Verts[i*(r.T.GridCols+1)+j] }

func (r Resident) y(i, j int) (float64, error) { return r.at(i, j).Y, nil }

// zBound is exact: the maximum transformed height over the rectangle.
func (r Resident) zBound(r0, r1, c0, c1 int) (float64, bool) {
	z := math.Inf(-1)
	for i := r0; i <= r1; i++ {
		for j := c0; j <= c1; j++ {
			z = math.Max(z, r.at(i, j).Z)
		}
	}
	return z, true
}

// vertices hands out the lattice itself: a one-pointer value, so the
// reader costs no allocation.
func (r Resident) vertices(_, _, _, _ int) (vertexReader, error) { return r, nil }

func (r Resident) vertex(i, j int) (geom.Pt3, error) { return r.at(i, j), nil }

func (Resident) retire(int) {}

func (Resident) meter() meterReading { return meterReading{} }

// worldBox scans the rectangle: a resident terrain's coordinates need not be
// monotone in the indices.
func (r Resident) worldBox(r0, r1, c0, c1 int) WorldBox {
	wb := WorldBox{
		X0: math.Inf(1), X1: math.Inf(-1),
		Y0: math.Inf(1), Y1: math.Inf(-1),
		H: math.Inf(-1), Valid: true,
	}
	for i := r0; i <= r1; i++ {
		for j := c0; j <= c1; j++ {
			v := r.at(i, j)
			wb.X0 = math.Min(wb.X0, v.X)
			wb.X1 = math.Max(wb.X1, v.X)
			wb.Y0 = math.Min(wb.Y0, v.Y)
			wb.Y1 = math.Max(wb.Y1, v.Y)
			wb.H = math.Max(wb.H, v.Z)
		}
	}
	return wb
}

// pagerMeter is the optional cost-accounting face of a HeightSource.
// store.Pager satisfies it; sources that do not are simply not metered.
// Readings are cumulative, so a solve attributes its own share by
// differencing around itself (approximate when solves share a source).
type pagerMeter interface {
	// WaitNanos is cumulative time demand requests spent blocked on reads.
	WaitNanos() int64
	// BytesRead is cumulative height bytes read from tile files.
	BytesRead() int64
	// PageIns is cumulative tile files read.
	PageIns() int64
}

// meterReading is one snapshot of a pagerMeter (zero when unmetered).
type meterReading struct{ waitNS, bytes, ins int64 }

// HeightSource serves height samples of a grid terrain on demand.
// store.Pager satisfies it structurally; tests substitute recorders. All
// coordinates are vertex (sample) indices, rectangles are inclusive.
type HeightSource interface {
	// Rect makes samples [r0, r1] x [c0, c1] available and returns an
	// accessor valid at least until the next Retire at or behind r1.
	Rect(r0, r1, c0, c1 int) (func(i, j int) float64, error)
	// Retire tells the source that samples with row index < row no longer
	// influence the solve and may be released.
	Retire(row int)
	// MaxHeight returns an upper bound on the samples in the inclusive
	// rectangle, without materializing them. ok=false means no bound is
	// known (the rectangle must then be treated as unboundedly tall).
	MaxHeight(r0, r1, c0, c1 int) (float64, bool)
}

// PagedGrid is the lattice of a uniform grid terrain whose heights live
// behind a HeightSource. Rows and Cols count cells (one less than sample
// rows/cols), matching Partition. Cell is the sample spacing along both
// axes. Shear > 0 applies the plan shear q.Y += Shear*q.X that
// dem.ToTerrain applies; zero or negative disables it. View, when non-nil,
// applies the perspective transform after the shear — exactly the chain a
// resident perspective frame goes through.
//
// Solving a PagedGrid never holds a resident terrain.Terrain: tile heights
// stream in through Src, a band's pages are retired as soon as its
// silhouette is merged into the front envelope, and tiles the envelope
// proves hidden are culled before their heights are requested — hidden
// terrain is never read.
type PagedGrid struct {
	Rows, Cols int
	Cell       float64
	Shear      float64
	View       *geom.PerspectiveTransform
	Src        HeightSource
}

func (g *PagedGrid) check(p *Partition) error {
	if g == nil || g.Src == nil {
		return fmt.Errorf("tile: paged grid needs a height source")
	}
	if g.Rows < 1 || g.Cols < 1 || !(g.Cell > 0) || math.IsInf(g.Cell, 1) {
		return fmt.Errorf("tile: paged grid %dx%d cells with spacing %v", g.Rows, g.Cols, g.Cell)
	}
	if g.Rows != p.Rows || g.Cols != p.Cols {
		return fmt.Errorf("tile: partition is %dx%d cells but paged grid is %dx%d", p.Rows, p.Cols, g.Rows, g.Cols)
	}
	return nil
}

// vertex builds vertex (i, j) with height h through the canonical chain.
// Each stage is the same floating-point expression the resident path
// evaluates — terrain.Grid.Build's coordinates, dem.ToTerrain's shear,
// geom.PerspectiveTransform.Apply — so the result is bit-identical even if a
// compiler fuses multiply-adds (identical expression shapes fuse identically).
func (g *PagedGrid) vertex(i, j int, h float64) (geom.Pt3, error) {
	q := geom.Pt3{X: float64(i) * g.Cell, Y: float64(j) * g.Cell, Z: h}
	if g.Shear > 0 {
		q.Y += g.Shear * q.X
	}
	if g.View == nil {
		return q, nil
	}
	v, err := g.View.Apply(q)
	if err != nil {
		return v, fmt.Errorf("tile: vertex (%d,%d): %w", i, j, err)
	}
	return v, nil
}

// y is independent of height under the whole transform chain — X and Y
// never read Z — so it costs no paging. A behind-eye vertex fails here
// exactly as the resident per-frame transform would fail it.
func (g *PagedGrid) y(i, j int) (float64, error) {
	v, err := g.vertex(i, j, 0)
	return v.Y, err
}

// zBound bounds the transformed height of any vertex in sample rows
// [r0, r1] from the source's MaxHeight. Without a perspective the
// transformed height is the raw height (shear touches only Y). Under a
// perspective, (maxH-Eye.Z)/depth is monotone in depth — and float rounding
// preserves monotonicity — so the bound is attained at one of the row
// extremes. The bound is >= the resident lattice's exact per-vertex maximum,
// which keeps the paged cull a subset of the resident cull; since culling
// never changes results (see TestCullingNeverChangesResult), results stay
// identical.
func (g *PagedGrid) zBound(r0, r1, c0, c1 int) (float64, bool) {
	maxH, ok := g.Src.MaxHeight(r0, r1, c0, c1)
	if !ok || g.View == nil {
		return maxH, ok
	}
	num := maxH - g.View.Eye.Z
	z0 := num / (float64(r0)*g.Cell - g.View.Eye.X)
	z1 := num / (float64(r1)*g.Cell - g.View.Eye.X)
	return math.Max(z0, z1), true
}

func (g *PagedGrid) vertices(r0, r1, c0, c1 int) (vertexReader, error) {
	h, err := g.Src.Rect(r0, r1, c0, c1)
	if err != nil {
		return nil, err
	}
	return pagedRect{g: g, h: h}, nil
}

// pagedRect reads the vertices of one paged-in rectangle.
type pagedRect struct {
	g *PagedGrid
	h func(i, j int) float64
}

func (r pagedRect) vertex(i, j int) (geom.Pt3, error) { return r.g.vertex(i, j, r.h(i, j)) }

func (g *PagedGrid) retire(row int) { g.Src.Retire(row) }

func (g *PagedGrid) meter() meterReading {
	if m, ok := g.Src.(pagerMeter); ok {
		return meterReading{waitNS: m.WaitNanos(), bytes: m.BytesRead(), ins: m.PageIns()}
	}
	return meterReading{}
}

// worldBox needs no paging: the world X/Y ranges follow in closed form from
// the grid geometry (both coordinates are monotone in the sample indices,
// even under float rounding, so corners bound the rectangle), and H comes
// from the source's MaxHeight over the same rectangle the paged cull
// queries. A rectangle the source cannot bound gets Valid=false and is never
// cone-verified — matching the cull, which never culls it either.
func (g *PagedGrid) worldBox(r0, r1, c0, c1 int) WorldBox {
	wb := WorldBox{
		X0: float64(r0) * g.Cell,
		X1: float64(r1) * g.Cell,
		Y0: math.Inf(1), Y1: math.Inf(-1),
	}
	for _, i := range [2]int{r0, r1} {
		for _, j := range [2]int{c0, c1} {
			q := geom.Pt3{X: float64(i) * g.Cell, Y: float64(j) * g.Cell}
			if g.Shear > 0 {
				q.Y += g.Shear * q.X
			}
			wb.Y0 = math.Min(wb.Y0, q.Y)
			wb.Y1 = math.Max(wb.Y1, q.Y)
		}
	}
	if h, ok := g.Src.MaxHeight(r0, r1, c0, c1); ok {
		wb.H, wb.Valid = h, true
	}
	return wb
}
