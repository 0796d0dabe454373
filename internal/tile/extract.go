package tile

import (
	"fmt"
	"math"

	"terrainhsr/internal/terrain"
)

// This file builds the per-tile sub-terrains. A tile's sub-terrain contains
// its owned cell rectangle plus a halo: every cell of the same band whose
// image-x (canonical y) interval intersects the owned rectangle's interval.
// The halo is what makes per-tile solves exact — within a band, every
// potential occluder of an owned point lies at the same canonical y, hence
// in a cell whose y-interval meets the owned interval. Occluders from
// earlier (front) bands are accounted separately, by clipping against the
// accumulated silhouette envelope; cells of later bands cannot occlude
// anything in this band because the viewer-to-point sight segment only
// crosses terrain at strictly smaller world x.
//
// Halo edges participate in the local solve as occluders only: their visible
// pieces are reported by the one tile that owns them, so seam edges are
// never emitted twice.

// yiv is a closed interval of canonical y (image x) values.
type yiv struct{ lo, hi float64 }

func (a yiv) intersects(b yiv, pad float64) bool {
	return a.lo <= b.hi+pad && b.lo <= a.hi+pad
}

// bandTables is one band's Y table and cell intervals. Each table's rows
// index one flat buffer sized with resize, so a solve refills them band
// after band without allocating.
type bandTables struct {
	// ys[i-r0][j] is the canonical y of vertex (i, j) of band rows
	// [r0, r1]; ivs[i-r0][j] is the canonical-y interval of cell (i, j).
	ys     [][]float64
	ivs    [][]yiv
	yFlat  []float64
	ivFlat []yiv
}

// fill computes the tables of vertex rows [r0, r1] (all columns) over t's
// storage. It reads no heights, so it is what lets halos and cull boxes be
// computed for tiles that are never read; it is recomputed per perspective
// frame.
func (t *bandTables) fill(l Lattice, cols, r0, r1 int) error {
	rows := r1 - r0 + 1
	t.yFlat = resize(t.yFlat, rows*(cols+1))
	t.ys = resize(t.ys, rows)
	for i := r0; i <= r1; i++ {
		row := t.yFlat[(i-r0)*(cols+1) : (i-r0+1)*(cols+1)]
		for j := range row {
			y, err := l.y(i, j)
			if err != nil {
				return err
			}
			row[j] = y
		}
		t.ys[i-r0] = row
	}
	t.ivFlat = resize(t.ivFlat, (rows-1)*cols)
	t.ivs = resize(t.ivs, rows-1)
	for i := range t.ivs {
		row := t.ivFlat[i*cols : (i+1)*cols]
		for j := range row {
			// The cell's four corner vertices.
			a := t.ys[i][j]
			b := t.ys[i][j+1]
			c := t.ys[i+1][j]
			d := t.ys[i+1][j+1]
			row[j] = yiv{
				lo: math.Min(math.Min(a, b), math.Min(c, d)),
				hi: math.Max(math.Max(a, b), math.Max(c, d)),
			}
		}
		t.ivs[i] = row
	}
	return nil
}

// ownedIV returns the canonical-y interval of the owned vertex rectangle
// [r0, r1] x [c0, c1] of a band starting at row r0: the image-x range any
// owned piece can occupy. With the lattice's zBound it is the tile's
// cullable bounding box in the image plane.
func ownedIV(ys [][]float64, r0, r1, c0, c1 int) yiv {
	iv := yiv{lo: math.Inf(1), hi: math.Inf(-1)}
	for i := r0; i <= r1; i++ {
		for j := c0; j <= c1; j++ {
			y := ys[i-r0][j]
			iv.lo = math.Min(iv.lo, y)
			iv.hi = math.Max(iv.hi, y)
		}
	}
	return iv
}

// haloRanges returns, per band row, the half-open cell-column range that the
// tile's sub-terrain must include: every band cell whose canonical-y
// interval intersects the owned interval. Per row the cell intervals are
// monotone in the column index (canonical y increases with world y at fixed
// depth under every transform the library applies), so the range is
// contiguous. The ranges are written over dst's storage.
func haloRanges(ivs [][]yiv, owned yiv, dst [][2]int) [][2]int {
	pad := 1e-7 * (1 + math.Abs(owned.lo) + math.Abs(owned.hi))
	out := resize(dst, len(ivs))
	for i, row := range ivs {
		lo, hi := len(row), len(row)
		for j, iv := range row {
			if iv.intersects(owned, pad) {
				lo = j
				break
			}
		}
		for j := len(row) - 1; j >= lo; j-- {
			if row[j].intersects(owned, pad) {
				hi = j + 1
				break
			}
		}
		if lo >= len(row) {
			lo, hi = 0, 0
		}
		out[i] = [2]int{lo, hi}
	}
	return out
}

// subTerrain is one tile's solvable terrain patch with the bookkeeping to
// translate its answers back into the full terrain's vocabulary.
type subTerrain struct {
	t *terrain.Terrain
	// globalEdge[le] is the full-terrain edge id of local edge le.
	globalEdge []int32
	// owned[le] reports whether this tile owns local edge le (exactly one
	// tile owns every global edge, so owned pieces are emitted exactly once).
	owned []bool
}

// extract materializes the sub-terrain of the tile in band b, column slot
// c, whose per-row cell ranges were computed by haloRanges for rows
// [r0, r1). It pages in one rectangle of vertices — the bounding column
// range of the halo — and builds the canonical triangles of every included
// cell in row-major order, so local vertex and edge numbering depend only
// on the cells, never on which lattice supplied the vertices. Global edge
// ids and owners come from the closed-form grid numbering. Everything it
// builds lives in the set-up arena s, including the returned value.
func extract(l Lattice, p *Partition, b, c int, r0, r1 int, ranges [][2]int, s *setup) (*subTerrain, error) {
	or0, or1, oc0, oc1 := p.TileCells(b, c)

	// The bounding column range of the halo, to page in one rectangle.
	jlo, jhi, cells := 0, 0, 0
	for _, rg := range ranges {
		if rg[0] >= rg[1] {
			continue
		}
		if cells == 0 || rg[0] < jlo {
			jlo = rg[0]
		}
		if rg[1] > jhi {
			jhi = rg[1]
		}
		cells += rg[1] - rg[0]
	}
	if cells == 0 {
		return nil, fmt.Errorf("tile: band %d col %d selected no cells", b, c)
	}
	vr, err := l.vertices(r0, r1, jlo, jhi) // vertex cols of cells [jlo, jhi)
	if err != nil {
		return nil, fmt.Errorf("tile: band %d col %d: %w", b, c, err)
	}

	// Number vertices compactly in first-reference order while emitting the
	// canonical grid triples terrain.Grid.Build emits for every included
	// cell (i, j). The dense table local covers the vertex rectangle
	// [r0, r1] x [jlo, jhi].
	nvc := int32(p.Cols + 1)
	width := jhi - jlo + 1
	local := resize(s.local, (r1-r0+1)*width)
	for k := range local {
		local[k] = -1
	}
	verts, gverts := s.verts[:0], s.gverts[:0]
	var vertErr error
	localID := func(i, j int) int32 {
		lv := &local[(i-r0)*width+j-jlo]
		if *lv < 0 {
			*lv = int32(len(verts))
			v, err := vr.vertex(i, j)
			if err != nil && vertErr == nil {
				vertErr = err
			}
			verts = append(verts, v)
			gverts = append(gverts, int32(i)*nvc+int32(j))
		}
		return *lv
	}
	tris := s.tris[:0]
	for i := r0; i < r1; i++ {
		for j := ranges[i-r0][0]; j < ranges[i-r0][1]; j++ {
			a := localID(i, j)
			bb := localID(i+1, j)
			cc := localID(i+1, j+1)
			d := localID(i, j+1)
			tris = append(tris, [3]int32{a, bb, cc}, [3]int32{a, cc, d})
		}
	}
	s.local, s.verts, s.gverts, s.tris = local, verts, gverts, tris
	if vertErr != nil {
		return nil, vertErr
	}

	if err := s.terr.Rebuild(verts, tris, &s.tsc); err != nil {
		return nil, fmt.Errorf("tile: band %d col %d: %w", b, c, err)
	}
	st := &s.sub
	st.t = &s.terr
	st.globalEdge = resize(st.globalEdge, len(s.terr.Edges))
	st.owned = resize(st.owned, len(s.terr.Edges))
	for le, ed := range s.terr.Edges {
		ge, oi, oj, err := gridEdge(p.Cols, int(nvc), gverts[ed.V0], gverts[ed.V1])
		if err != nil {
			return nil, fmt.Errorf("tile: band %d col %d: local edge %d: %w", b, c, le, err)
		}
		st.globalEdge[le] = ge
		st.owned[le] = oi >= or0 && oi < or1 && oj >= oc0 && oj < oc1
	}
	return st, nil
}

// gridEdgeBase returns how many global edges are discovered before cell
// (i, j) in the canonical triangle walk of an R x cols cell grid. Each cell
// past the first of its row adds 3 new edges (its right vertical, its
// diagonal, and one horizontal); the first cell of a row adds its left
// vertical too; cells of the first row also add their front horizontal.
func gridEdgeBase(cols, i, j int) int32 {
	base := 3*(i*cols+j) + i
	if j >= 1 {
		base++
	}
	if i == 0 {
		base += j
	} else {
		base += cols
	}
	return int32(base)
}

// gridEdge resolves the grid edge joining global samples g0 and g1 to its
// global id and owner cell, in closed form — the same numbering terrain.New
// derives by walking a grid terrain's triangles, and the same owner rule
// (the cell of the edge's lowest-numbered incident triangle). Validated
// exhaustively against the reference EdgeIndex in tests.
func gridEdge(cols, nvc int, g0, g1 int32) (id int32, oi, oj int, err error) {
	if g0 > g1 {
		g0, g1 = g1, g0
	}
	i0, j0 := int(g0)/nvc, int(g0)%nvc
	i1, j1 := int(g1)/nvc, int(g1)%nvc
	switch {
	case i1-i0 == 1 && j1-j0 == 0:
		// Vertical (along depth): first seen as edge (a,b) of cell
		// (i0, j0-1)'s second-column triangle walk, or opening cell (i0, 0).
		if j0 == 0 {
			id = gridEdgeBase(cols, i0, 0)
			oi, oj = i0, 0
		} else {
			id = gridEdgeBase(cols, i0, j0-1) + 2
			if j0 == 1 {
				id++
			}
			oi, oj = i0, j0-1
		}
	case i1-i0 == 0 && j1-j0 == 1:
		// Horizontal (across): owned behind, except on the front row.
		if i0 == 0 {
			id = gridEdgeBase(cols, 0, j0) + 3
			if j0 == 0 {
				id++
			}
			oi, oj = 0, j0
		} else {
			id = gridEdgeBase(cols, i0-1, j0)
			if j0 == 0 {
				id++
			}
			oi, oj = i0-1, j0
		}
	case i1-i0 == 1 && j1-j0 == 1:
		// Diagonal of cell (i0, j0).
		id = gridEdgeBase(cols, i0, j0) + 1
		if j0 == 0 {
			id++
		}
		oi, oj = i0, j0
	default:
		return 0, 0, 0, fmt.Errorf("tile: samples %d and %d share no grid edge", g0, g1)
	}
	return id, oi, oj, nil
}
