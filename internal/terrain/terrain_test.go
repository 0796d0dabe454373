package terrain

import (
	"math"
	"slices"
	"testing"

	"terrainhsr/internal/geom"
)

func flatGrid(rows, cols int) *Terrain {
	t, err := Grid{Rows: rows, Cols: cols, Dx: 1, Dy: 1, H: func(i, j int) float64 { return 0 }}.Build()
	if err != nil {
		panic(err)
	}
	return t
}

func TestGridCounts(t *testing.T) {
	tr := flatGrid(3, 4)
	if got, want := len(tr.Verts), 4*5; got != want {
		t.Fatalf("verts %d want %d", got, want)
	}
	if got, want := len(tr.Tris), 2*3*4; got != want {
		t.Fatalf("tris %d want %d", got, want)
	}
	if got, want := tr.NumEdges(), EdgeCountForGrid(3, 4); got != want {
		t.Fatalf("edges %d want %d", got, want)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGridAlternateDiagonals(t *testing.T) {
	tr, err := Grid{Rows: 4, Cols: 4, Dx: 1, Dy: 1, AlternateDiagonals: true,
		H: func(i, j int) float64 { return float64(i + j) }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.NumEdges(), EdgeCountForGrid(4, 4); got != want {
		t.Fatalf("edges %d want %d", got, want)
	}
	if tr.IsGrid() {
		t.Fatal("alternate-diagonal grid carries canonical grid metadata")
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := (Grid{Rows: 0, Cols: 3, Dx: 1, Dy: 1, H: func(i, j int) float64 { return 0 }}).Build(); err == nil {
		t.Fatal("expected error for zero rows")
	}
	if _, err := (Grid{Rows: 2, Cols: 2, Dx: 0, Dy: 1, H: func(i, j int) float64 { return 0 }}).Build(); err == nil {
		t.Fatal("expected error for zero spacing")
	}
	if _, err := (Grid{Rows: 2, Cols: 2, Dx: 1, Dy: 1}).Build(); err == nil {
		t.Fatal("expected error for nil height fn")
	}
}

func TestAdjacencyConsistency(t *testing.T) {
	tr := flatGrid(5, 5)
	// Every edge's recorded triangles must actually contain the edge.
	for ei, e := range tr.Edges {
		for _, ti := range []int32{e.Left, e.Right} {
			if ti == NoTri {
				continue
			}
			found := false
			for k := 0; k < 3; k++ {
				u, v := tr.Tris[ti][k], tr.Tris[ti][(k+1)%3]
				if (u == e.V0 && v == e.V1) || (u == e.V1 && v == e.V0) {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d adjacency broken: tri %d doesn't contain it", ei, ti)
			}
		}
	}
	// Interior edge count: each triangle has 3 edges, boundary edges have 1 tri.
	interior := 0
	for _, e := range tr.Edges {
		if e.Left != NoTri && e.Right != NoTri {
			interior++
		}
	}
	if boundary := tr.NumEdges() - interior; boundary != 4*5 {
		t.Fatalf("boundary edge count %d, want 20", boundary)
	}
}

func TestTriangleOrientationFixup(t *testing.T) {
	// Provide a CW triangle; New must flip it.
	verts := []geom.Pt3{geom.P3(0, 0, 0), geom.P3(1, 0, 0), geom.P3(0, 1, 0)}
	tr, err := New(verts, [][3]int32{{0, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := tr.PlanPt(tr.Tris[0][0]), tr.PlanPt(tr.Tris[0][1]), tr.PlanPt(tr.Tris[0][2])
	if geom.Cross(a, b, c) <= 0 {
		t.Fatal("triangle not CCW after New")
	}
}

func TestNewRejectsDegenerate(t *testing.T) {
	verts := []geom.Pt3{geom.P3(0, 0, 0), geom.P3(1, 0, 0), geom.P3(2, 0, 0)}
	if _, err := New(verts, [][3]int32{{0, 1, 2}}); err == nil {
		t.Fatal("expected degenerate triangle error")
	}
	if _, err := New(verts, [][3]int32{{0, 1, 9}}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestValidateDuplicatePlanPosition(t *testing.T) {
	verts := []geom.Pt3{geom.P3(0, 0, 0), geom.P3(1, 0, 0), geom.P3(0, 1, 0), geom.P3(1, 0, 5)}
	tr, err := New(verts, [][3]int32{{0, 1, 2}, {1, 3, 2}})
	if err == nil {
		// Adjacency may catch it first; otherwise Validate must.
		if verr := tr.Validate(); verr == nil {
			t.Fatal("expected duplicate plan position to be rejected")
		}
	}
}

func TestHeightAt(t *testing.T) {
	tr, err := Grid{Rows: 2, Cols: 2, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return float64(i) }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	z, ok := tr.HeightAt(0.5, 0.5)
	if !ok || math.Abs(z-0.5) > 1e-9 {
		t.Fatalf("HeightAt(0.5,0.5)=%v,%v", z, ok)
	}
	if _, ok := tr.HeightAt(-5, -5); ok {
		t.Fatal("point outside terrain should not be found")
	}
}

func TestEdgeProjections(t *testing.T) {
	tr := flatGrid(1, 1)
	for e := range tr.Edges {
		s := tr.EdgeImageSeg(e)
		if s.B.X < s.A.X {
			t.Fatalf("edge %d image segment not canonical", e)
		}
	}
}

func TestTransformPerspective(t *testing.T) {
	tr, err := Grid{Rows: 3, Cols: 3, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return float64((i*j)%3) * 0.2 }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	pt := geom.PerspectiveTransform{Eye: geom.P3(-2, 1.5, 3), MinDepth: 0.5}
	tr2, err := tr.Transform(pt.Apply)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Validate(); err != nil {
		t.Fatalf("transformed terrain invalid: %v", err)
	}
	if len(tr2.Tris) != len(tr.Tris) {
		t.Fatal("transform changed triangle count")
	}
}

func TestTransformErrorPropagates(t *testing.T) {
	tr := flatGrid(2, 2)
	pt := geom.PerspectiveTransform{Eye: geom.P3(5, 0, 3), MinDepth: 0.5}
	if _, err := tr.Transform(pt.Apply); err == nil {
		t.Fatal("expected behind-eye error")
	}
}

func TestTriangulateConvexFace(t *testing.T) {
	verts := []geom.Pt3{geom.P3(0, 0, 0), geom.P3(2, 0, 0), geom.P3(2, 2, 0), geom.P3(0, 2, 0)}
	tris, err := TriangulateFace(verts, []int32{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tris) != 2 {
		t.Fatalf("expected 2 triangles, got %d", len(tris))
	}
}

func TestTriangulateReversedLoop(t *testing.T) {
	verts := []geom.Pt3{geom.P3(0, 0, 0), geom.P3(2, 0, 0), geom.P3(2, 2, 0), geom.P3(0, 2, 0)}
	tris, err := TriangulateFace(verts, []int32{3, 2, 1, 0}) // CW input
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range tris {
		a, b, c := verts[tr[0]].PlanPoint(), verts[tr[1]].PlanPoint(), verts[tr[2]].PlanPoint()
		if geom.Cross(a, b, c) <= 0 {
			t.Fatal("output triangle not CCW")
		}
	}
}

func TestTriangulateNonConvexFace(t *testing.T) {
	// An L-shaped (reflex) hexagon.
	verts := []geom.Pt3{
		geom.P3(0, 0, 0), geom.P3(3, 0, 0), geom.P3(3, 1, 0),
		geom.P3(1, 1, 0), geom.P3(1, 3, 0), geom.P3(0, 3, 0),
	}
	tris, err := TriangulateFace(verts, []int32{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tris) != 4 {
		t.Fatalf("expected 4 triangles, got %d", len(tris))
	}
	// Total plan area must equal the polygon's (3*1 + 1*2 = 5).
	total := 0.0
	for _, tr := range tris {
		a, b, c := verts[tr[0]].PlanPoint(), verts[tr[1]].PlanPoint(), verts[tr[2]].PlanPoint()
		total += math.Abs(geom.Cross(a, b, c)) / 2
	}
	if math.Abs(total-5) > 1e-9 {
		t.Fatalf("triangulated area %v, want 5", total)
	}
}

func TestTriangulateMesh(t *testing.T) {
	// Two quads sharing an edge, forming a 2x1 strip.
	verts := []geom.Pt3{
		geom.P3(0, 0, 0), geom.P3(1, 0, 1), geom.P3(2, 0, 0),
		geom.P3(0, 1, 0), geom.P3(1, 1, 2), geom.P3(2, 1, 0),
	}
	faces := [][]int32{{0, 1, 4, 3}, {1, 2, 5, 4}}
	tr, err := TriangulateMesh(verts, faces)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Tris) != 4 {
		t.Fatalf("expected 4 triangles, got %d", len(tr.Tris))
	}
}

func TestTriangulateFaceErrors(t *testing.T) {
	verts := []geom.Pt3{geom.P3(0, 0, 0), geom.P3(1, 0, 0)}
	if _, err := TriangulateFace(verts, []int32{0, 1}); err == nil {
		t.Fatal("expected error for 2-vertex face")
	}
}

func TestTransformSharedMatchesTransform(t *testing.T) {
	tr, err := Grid{Rows: 6, Cols: 5, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return float64(i*j) * 0.3 }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	pt := geom.PerspectiveTransform{Eye: geom.Pt3{X: -10, Y: 2, Z: 5}, MinDepth: 0.5}
	full, err := tr.Transform(pt.Apply)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := tr.TransformShared(pt.Apply)
	if err != nil {
		t.Fatal(err)
	}
	if len(shared.Verts) != len(full.Verts) {
		t.Fatalf("vert counts differ: %d vs %d", len(shared.Verts), len(full.Verts))
	}
	for i := range full.Verts {
		if full.Verts[i] != shared.Verts[i] {
			t.Fatalf("vert %d differs: %v vs %v", i, full.Verts[i], shared.Verts[i])
		}
	}
	if len(shared.Tris) != len(full.Tris) || len(shared.Edges) != len(full.Edges) {
		t.Fatalf("topology sizes differ: %d/%d tris, %d/%d edges",
			len(shared.Tris), len(full.Tris), len(shared.Edges), len(full.Edges))
	}
	for i := range full.Tris {
		if full.Tris[i] != shared.Tris[i] {
			t.Fatalf("tri %d differs: %v vs %v", i, full.Tris[i], shared.Tris[i])
		}
	}
	for i := range full.Edges {
		if full.Edges[i] != shared.Edges[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, full.Edges[i], shared.Edges[i])
		}
	}
	// The point of TransformShared: tables are aliased, not copied.
	if &shared.Tris[0] != &tr.Tris[0] || &shared.Edges[0] != &tr.Edges[0] {
		t.Fatal("TransformShared copied the topology tables")
	}
	if err := shared.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTransformSharedRejectsFlipsAndDegeneracy(t *testing.T) {
	tr, err := Grid{Rows: 2, Cols: 2, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return 0 }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Mirroring the plan flips orientation; Transform re-normalizes but
	// TransformShared cannot (it shares the triangle table) and must refuse.
	mirror := func(p geom.Pt3) (geom.Pt3, error) { p.Y = -p.Y; return p, nil }
	if _, err := tr.TransformShared(mirror); err == nil {
		t.Fatal("orientation flip accepted")
	}
	if _, err := tr.Transform(mirror); err != nil {
		t.Fatalf("Transform should renormalize a mirror: %v", err)
	}
	// Collapsing to a line is degenerate for both.
	collapse := func(p geom.Pt3) (geom.Pt3, error) { p.Y = 0; return p, nil }
	if _, err := tr.TransformShared(collapse); err == nil {
		t.Fatal("degenerate transform accepted")
	}
	// Vertex errors propagate.
	pt := geom.PerspectiveTransform{Eye: geom.Pt3{X: 5, Y: 0, Z: 0}, MinDepth: 0.5}
	if _, err := tr.TransformShared(pt.Apply); err == nil {
		t.Fatal("behind-eye vertex accepted")
	}
}

// TestTransformSharedIntoReusesVertexTable checks that transforming into a
// terrain that holds another, larger terrain's vertices gives exactly
// TransformShared's terrain, in that terrain's own vertex storage.
func TestTransformSharedIntoReusesVertexTable(t *testing.T) {
	small, err := Grid{Rows: 4, Cols: 3, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return float64(i+j) * 0.2 }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	big, err := Grid{Rows: 7, Cols: 6, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return float64(i*j) * 0.3 }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	pt := geom.PerspectiveTransform{Eye: geom.Pt3{X: -10, Y: 2, Z: 5}, MinDepth: 0.5}
	var dst Terrain
	if err := big.TransformSharedInto(&dst, pt.Apply); err != nil {
		t.Fatal(err)
	}
	storage := &dst.Verts[0]
	if err := small.TransformSharedInto(&dst, pt.Apply); err != nil {
		t.Fatal(err)
	}
	want, err := small.TransformShared(pt.Apply)
	if err != nil {
		t.Fatal(err)
	}
	if &dst.Verts[0] != storage {
		t.Fatal("TransformSharedInto reallocated a large enough vertex table")
	}
	if !slices.Equal(dst.Verts, want.Verts) || &dst.Tris[0] != &small.Tris[0] || &dst.Edges[0] != &small.Edges[0] ||
		dst.GridRows != want.GridRows || dst.GridCols != want.GridCols {
		t.Fatalf("reused transform differs from TransformShared's terrain")
	}
}
