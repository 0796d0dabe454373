package terrain

import (
	"fmt"
	"math"
	"slices"

	"terrainhsr/internal/geom"
)

// NoTri marks a missing triangle adjacency (boundary edge).
const NoTri = int32(-1)

// Edge is an undirected terrain edge with its (up to two) incident
// triangles. V0 < V1 always. Left is the triangle lying to the left of the
// directed plan-view segment V0->V1, Right the one to its right; either may
// be NoTri on the boundary.
type Edge struct {
	V0, V1      int32
	Left, Right int32
}

// Terrain is a TIN. Triangles are triples of vertex indices, counter-
// clockwise in the x-y (plan) projection.
type Terrain struct {
	Verts []geom.Pt3
	Tris  [][3]int32
	Edges []Edge

	// GridRows and GridCols record the cell dimensions when the terrain was
	// built by Grid.Build with the canonical diagonal split (both zero
	// otherwise). A grid terrain's vertex and triangle indices follow the
	// canonical layout — vertex (i, j) is i*(GridCols+1)+j, cell (i, j) owns
	// triangles (a, b, c) and (a, c, d) over its corners a=(i, j),
	// b=(i+1, j), c=(i+1, j+1), d=(i, j+1), numbered 2*(i*GridCols+j) and
	// 2*(i*GridCols+j)+1 — so its edge numbering has the closed form package
	// tile partitions and numbers by. The metadata survives Transform and
	// TransformShared because both preserve the triangulation's index
	// structure.
	GridRows, GridCols int
}

// IsGrid reports whether the terrain carries the canonical grid index layout
// stamped by Grid.Build (and preserved by transforms).
func (t *Terrain) IsGrid() bool { return t.GridRows > 0 && t.GridCols > 0 }

// NumEdges returns the number of distinct edges (the paper's n).
func (t *Terrain) NumEdges() int { return len(t.Edges) }

// EdgeSeg3 returns edge e as a world-space segment.
func (t *Terrain) EdgeSeg3(e int) geom.Seg3 {
	ed := t.Edges[e]
	return geom.Seg3{A: t.Verts[ed.V0], B: t.Verts[ed.V1]}
}

// EdgeImageSeg returns the image-plane projection of edge e.
func (t *Terrain) EdgeImageSeg(e int) geom.Seg2 { return t.EdgeSeg3(e).ImageSeg() }

// PlanPt returns the plan-view (x-y) projection of vertex v.
func (t *Terrain) PlanPt(v int32) geom.Pt2 { return t.Verts[v].PlanPoint() }

// New builds a Terrain from vertices and triangles, orienting every triangle
// counter-clockwise in plan view and deriving the edge/adjacency table.
func New(verts []geom.Pt3, tris [][3]int32) (*Terrain, error) {
	t := new(Terrain)
	if err := t.Rebuild(verts, tris, new(Scratch)); err != nil {
		return nil, err
	}
	return t, nil
}

// Scratch is the working memory of the edge derivation: per-vertex edge
// lists keyed by the lower vertex of each edge. The zero value is ready to
// use, and a Scratch keeps its capacity from one Rebuild to the next.
type Scratch struct {
	head []int32 // head[v]: the newest edge whose V0 is v, or -1
	next []int32 // next[e]: the edge before e in e.V0's list, or -1
}

// Rebuild makes t the terrain New(verts, tris) returns — same triangles,
// orientations, edge numbering and adjacency — but reuses the storage of
// t's Tris and Edges and of sc, so a caller that rebuilds terrains of
// similar size in a loop allocates nothing once the buffers have grown.
// Like New's result, t aliases verts. The grid metadata is cleared. t must
// own its tables: rebuilding a TransformShared result would overwrite the
// tables it shares. On error t's contents are unspecified.
func (t *Terrain) Rebuild(verts []geom.Pt3, tris [][3]int32, sc *Scratch) error {
	t.Verts = verts
	t.Tris = append(t.Tris[:0], tris...)
	t.Edges = t.Edges[:0]
	t.GridRows, t.GridCols = 0, 0
	for i, tr := range t.Tris {
		for _, v := range tr {
			if int(v) >= len(verts) || v < 0 {
				return fmt.Errorf("terrain: triangle %d references vertex %d out of range", i, v)
			}
		}
		a, b, c := t.PlanPt(tr[0]), t.PlanPt(tr[1]), t.PlanPt(tr[2])
		cr := geom.Cross(a, b, c)
		if math.Abs(cr) <= geom.Eps {
			return fmt.Errorf("terrain: triangle %d degenerate in plan view", i)
		}
		if cr < 0 {
			t.Tris[i][1], t.Tris[i][2] = t.Tris[i][2], t.Tris[i][1]
		}
	}
	return t.buildEdges(sc)
}

// buildEdges numbers the edges in first-seen order of the triangle walk and
// records each edge's left and right triangle. An edge is found again
// through the list of its lower vertex, whose length is that vertex's
// number of higher-numbered neighbours.
func (t *Terrain) buildEdges(sc *Scratch) error {
	nv := len(t.Verts)
	head := slices.Grow(sc.head[:0], nv)[:nv]
	for v := range head {
		head[v] = -1
	}
	// Euler's formula bounds a plane triangulation's edges by V + T - 1, so
	// a valid terrain never grows the tables past this capacity.
	edges := slices.Grow(t.Edges[:0], nv+len(t.Tris))
	next := slices.Grow(sc.next[:0], cap(edges))
	defer func() { t.Edges, sc.head, sc.next = edges, head, next }()
	for ti, tr := range t.Tris {
		for k := 0; k < 3; k++ {
			u, v := tr[k], tr[(k+1)%3]
			lo, hi := min(u, v), max(u, v)
			ei := head[lo]
			for ei >= 0 && edges[ei].V1 != hi {
				ei = next[ei]
			}
			if ei < 0 {
				ei = int32(len(edges))
				edges = append(edges, Edge{V0: lo, V1: hi, Left: NoTri, Right: NoTri})
				next = append(next, head[lo])
				head[lo] = ei
			}
			e := &edges[ei]
			// The triangle is CCW; the directed edge u->v has the triangle on
			// its left. Record relative to the canonical direction V0->V1.
			if u == e.V0 {
				if e.Left != NoTri {
					return fmt.Errorf("terrain: edge (%d,%d) has more than one left triangle", u, v)
				}
				e.Left = int32(ti)
			} else {
				if e.Right != NoTri {
					return fmt.Errorf("terrain: edge (%d,%d) has more than one right triangle", u, v)
				}
				e.Right = int32(ti)
			}
		}
	}
	return nil
}

// Validate checks the terrain properties the paper requires: distinct plan
// positions (z is a function of (x, y)), non-degenerate CCW triangles, and
// a consistent adjacency table.
func (t *Terrain) Validate() error {
	seen := make(map[[2]float64]int32, len(t.Verts))
	for i, v := range t.Verts {
		key := [2]float64{v.X, v.Y}
		if j, dup := seen[key]; dup {
			return fmt.Errorf("terrain: vertices %d and %d share plan position (%v,%v)", j, i, v.X, v.Y)
		}
		seen[key] = int32(i)
		if math.IsNaN(v.Z) || math.IsInf(v.Z, 0) {
			return fmt.Errorf("terrain: vertex %d has invalid height", i)
		}
	}
	for i, tr := range t.Tris {
		a, b, c := t.PlanPt(tr[0]), t.PlanPt(tr[1]), t.PlanPt(tr[2])
		if geom.Cross(a, b, c) <= 0 {
			return fmt.Errorf("terrain: triangle %d not CCW in plan view", i)
		}
	}
	for i, e := range t.Edges {
		if e.Left == NoTri && e.Right == NoTri {
			return fmt.Errorf("terrain: edge %d has no incident triangle", i)
		}
	}
	return nil
}

// HeightAt evaluates the terrain surface at plan position (x, y) by locating
// the containing triangle with a linear scan (test/debug helper, not a fast
// path).
func (t *Terrain) HeightAt(x, y float64) (float64, bool) {
	p := geom.Pt2{X: x, Z: y}
	for _, tr := range t.Tris {
		a, b, c := t.PlanPt(tr[0]), t.PlanPt(tr[1]), t.PlanPt(tr[2])
		if geom.Cross(a, b, p) >= -geom.Eps &&
			geom.Cross(b, c, p) >= -geom.Eps &&
			geom.Cross(c, a, p) >= -geom.Eps {
			// Barycentric interpolation.
			area := geom.Cross(a, b, c)
			wa := geom.Cross(b, c, p) / area
			wb := geom.Cross(c, a, p) / area
			wc := 1 - wa - wb
			va, vb, vc := t.Verts[tr[0]], t.Verts[tr[1]], t.Verts[tr[2]]
			return wa*va.Z + wb*vb.Z + wc*vc.Z, true
		}
	}
	return 0, false
}

// Transform returns a copy of the terrain with every vertex mapped by f.
// The triangulation is rebuilt so orientations and adjacency stay valid.
func (t *Terrain) Transform(f func(geom.Pt3) (geom.Pt3, error)) (*Terrain, error) {
	verts, err := t.transformVerts(nil, f)
	if err != nil {
		return nil, err
	}
	nt, err := New(verts, t.Tris)
	if err != nil {
		return nil, err
	}
	nt.GridRows, nt.GridCols = t.GridRows, t.GridCols
	return nt, nil
}

// TransformShared returns the terrain with every vertex mapped by f, sharing
// the triangle and edge tables with the receiver instead of rebuilding them.
// It requires f to preserve plan orientation, which it verifies per triangle
// (the perspective transform qualifies: its plan Jacobian has determinant
// 1/depth^3 > 0). The checks mirror New, so a transform that TransformShared
// accepts yields exactly the Terrain that Transform would have built — at
// the cost of mapping the vertices only, which is what makes per-viewpoint
// batch solves cheap.
//
// The returned terrain aliases the receiver's Tris and Edges; both values
// stay valid as long as neither is mutated (Terrain values are treated as
// immutable throughout the library).
func (t *Terrain) TransformShared(f func(geom.Pt3) (geom.Pt3, error)) (*Terrain, error) {
	nt := new(Terrain)
	if err := t.TransformSharedInto(nt, f); err != nil {
		return nil, err
	}
	return nt, nil
}

// TransformSharedInto makes dst the terrain TransformShared returns, writing
// the mapped vertices over dst's vertex table, so a caller that transforms
// into the same terrain in a loop allocates nothing once the table has
// grown. dst must own its vertex table: transforming into a terrain whose
// vertices another terrain shares would overwrite them. On error dst's
// contents are unspecified.
func (t *Terrain) TransformSharedInto(dst *Terrain, f func(geom.Pt3) (geom.Pt3, error)) error {
	verts, err := t.transformVerts(dst.Verts, f)
	if err != nil {
		return err
	}
	*dst = Terrain{Verts: verts, Tris: t.Tris, Edges: t.Edges, GridRows: t.GridRows, GridCols: t.GridCols}
	for i, tr := range dst.Tris {
		a, b, c := dst.PlanPt(tr[0]), dst.PlanPt(tr[1]), dst.PlanPt(tr[2])
		cr := geom.Cross(a, b, c)
		if math.Abs(cr) <= geom.Eps {
			return fmt.Errorf("terrain: triangle %d degenerate in plan view", i)
		}
		if cr < 0 {
			return fmt.Errorf("terrain: transform flips plan orientation of triangle %d", i)
		}
	}
	return nil
}

// transformVerts maps every vertex through f, writing over dst's storage.
func (t *Terrain) transformVerts(dst []geom.Pt3, f func(geom.Pt3) (geom.Pt3, error)) ([]geom.Pt3, error) {
	if cap(dst) < len(t.Verts) {
		dst = make([]geom.Pt3, len(t.Verts))
	}
	verts := dst[:len(t.Verts)]
	for i, v := range t.Verts {
		q, err := f(v)
		if err != nil {
			return nil, fmt.Errorf("terrain: transform vertex %d: %w", i, err)
		}
		verts[i] = q
	}
	return verts, nil
}
