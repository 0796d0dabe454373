package terrain

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"terrainhsr/internal/geom"
)

// refEdgeKey and refBuildEdges are the map-keyed edge derivation that the
// per-vertex edge lists replaced, kept as the reference buildEdges must
// reproduce: the same numbering (first-seen order of the triangle walk), the
// same Left/Right adjacency and the same errors. tris must already be
// oriented counter-clockwise, as New leaves them.
type refEdgeKey struct{ a, b int32 }

func refBuildEdges(tris [][3]int32) ([]Edge, error) {
	var edges []Edge
	idx := make(map[refEdgeKey]int32, 3*len(tris)/2)
	for ti, tr := range tris {
		for k := 0; k < 3; k++ {
			u, v := tr[k], tr[(k+1)%3]
			key := refEdgeKey{u, v}
			if u > v {
				key = refEdgeKey{v, u}
			}
			ei, ok := idx[key]
			if !ok {
				ei = int32(len(edges))
				idx[key] = ei
				edges = append(edges, Edge{V0: key.a, V1: key.b, Left: NoTri, Right: NoTri})
			}
			e := &edges[ei]
			if u == e.V0 {
				if e.Left != NoTri {
					return nil, fmt.Errorf("terrain: edge (%d,%d) has more than one left triangle", u, v)
				}
				e.Left = int32(ti)
			} else {
				if e.Right != NoTri {
					return nil, fmt.Errorf("terrain: edge (%d,%d) has more than one right triangle", u, v)
				}
				e.Right = int32(ti)
			}
		}
	}
	return edges, nil
}

// orientCCW returns tris with every triangle turned counter-clockwise in
// plan view, as New orients them.
func orientCCW(verts []geom.Pt3, tris [][3]int32) [][3]int32 {
	out := append([][3]int32(nil), tris...)
	for i, tr := range out {
		if geom.Cross(verts[tr[0]].PlanPoint(), verts[tr[1]].PlanPoint(), verts[tr[2]].PlanPoint()) < 0 {
			out[i][1], out[i][2] = tr[2], tr[1]
		}
	}
	return out
}

// randomTIN builds an irregular triangulation over a jittered rows x cols
// lattice: each cell is split along a random diagonal, vertices are
// relabelled by a random permutation, and triangles are shuffled, rotated
// and given random orientation, so neither vertex nor triangle numbering
// follows the lattice.
func randomTIN(r *rand.Rand, rows, cols int) ([]geom.Pt3, [][3]int32) {
	nv := (rows + 1) * (cols + 1)
	perm := r.Perm(nv)
	verts := make([]geom.Pt3, nv)
	for i := 0; i <= rows; i++ {
		for j := 0; j <= cols; j++ {
			verts[perm[i*(cols+1)+j]] = geom.Pt3{
				X: float64(i) + 0.3*(r.Float64()-0.5),
				Y: float64(j) + 0.3*(r.Float64()-0.5),
				Z: 3 * r.Float64(),
			}
		}
	}
	id := func(i, j int) int32 { return int32(perm[i*(cols+1)+j]) }
	var tris [][3]int32
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			a, b, c, d := id(i, j), id(i+1, j), id(i+1, j+1), id(i, j+1)
			if r.Intn(2) == 0 {
				tris = append(tris, [3]int32{a, b, c}, [3]int32{a, c, d})
			} else {
				tris = append(tris, [3]int32{a, b, d}, [3]int32{b, c, d})
			}
		}
	}
	r.Shuffle(len(tris), func(i, j int) { tris[i], tris[j] = tris[j], tris[i] })
	for i, tr := range tris {
		k := r.Intn(3)
		tr = [3]int32{tr[k], tr[(k+1)%3], tr[(k+2)%3]}
		if r.Intn(2) == 0 {
			tr[1], tr[2] = tr[2], tr[1]
		}
		tris[i] = tr
	}
	return verts, tris
}

// edgeCases is the terrain set the edge-table equivalence runs over: grids,
// transformed grids and random TINs, in an order that makes a reused
// builder shrink and grow.
func edgeCases(t *testing.T) []*Terrain {
	t.Helper()
	var out []*Terrain
	add := func(tt *Terrain, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tt)
	}
	wavy := func(i, j int) float64 { return math.Sin(0.7*float64(i)) * math.Cos(0.4*float64(j)) }
	add(Grid{Rows: 9, Cols: 7, Dx: 1, Dy: 1, H: wavy}.Build())
	add(Grid{Rows: 1, Cols: 1, Dx: 1, Dy: 1, H: wavy}.Build())
	add(Grid{Rows: 12, Cols: 15, Dx: 0.5, Dy: 2, H: wavy, AlternateDiagonals: true}.Build())
	sheared, err := out[0].Transform(func(q geom.Pt3) (geom.Pt3, error) {
		q.Y += 0.37 * q.X
		return q, nil
	})
	add(sheared, err)
	view := geom.PerspectiveTransform{Eye: geom.Pt3{X: -4, Y: 3, Z: 5}, MinDepth: 1e-3}
	add(out[2].Transform(view.Apply))
	r := rand.New(rand.NewSource(7))
	for _, sz := range [][2]int{{6, 6}, {2, 3}, {17, 11}, {1, 4}, {25, 20}} {
		verts, tris := randomTIN(r, sz[0], sz[1])
		add(New(verts, tris))
	}
	return out
}

func TestBuildEdgesMatchesMapReference(t *testing.T) {
	for i, tt := range edgeCases(t) {
		want, err := refBuildEdges(tt.Tris)
		if err != nil {
			t.Fatalf("case %d: reference: %v", i, err)
		}
		if !reflect.DeepEqual(tt.Edges, want) {
			t.Fatalf("case %d: New's edge table differs from the map-keyed reference", i)
		}
		if err := tt.Validate(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

func TestRebuildScratchMatchesNew(t *testing.T) {
	// One terrain and Scratch across every case: shrinking and growing must
	// leave no trace of the previous terrain.
	var reused Terrain
	var sc Scratch
	for i, tt := range edgeCases(t) {
		if err := reused.Rebuild(tt.Verts, tt.Tris, &sc); err != nil {
			t.Fatalf("case %d: Rebuild: %v", i, err)
		}
		if !reflect.DeepEqual(reused.Tris, tt.Tris) || !reflect.DeepEqual(reused.Edges, tt.Edges) {
			t.Fatalf("case %d: reused Rebuild differs from New", i)
		}
		if reused.IsGrid() {
			t.Fatalf("case %d: Rebuild kept grid metadata", i)
		}
	}
}

func TestBuildEdgesErrorsMatchMapReference(t *testing.T) {
	verts := []geom.Pt3{
		{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 0.5, Y: 2},
		{X: 0.5, Y: -1}, {X: 0.2, Y: -2},
	}
	cases := []struct {
		name string
		tris [][3]int32
		want string
	}{
		{"duplicate triangle", [][3]int32{{0, 1, 2}, {1, 0, 4}, {2, 0, 1}}, "more than one right triangle"},
		{"two left of one edge", [][3]int32{{0, 1, 2}, {0, 1, 3}}, "more than one left triangle"},
		{"two right of one edge", [][3]int32{{1, 0, 4}, {1, 0, 5}}, "more than one right triangle"},
		{"clockwise input folded", [][3]int32{{0, 2, 1}, {1, 2, 0}}, "more than one left triangle"},
	}
	var reused Terrain
	var sc Scratch
	for _, c := range cases {
		_, wantErr := refBuildEdges(orientCCW(verts, c.tris))
		if wantErr == nil {
			t.Fatalf("%s: reference accepted the triangles", c.name)
		}
		_, err := New(verts, c.tris)
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: New error %v, reference %v", c.name, err, wantErr)
		}
		if err := reused.Rebuild(verts, c.tris, &sc); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: Rebuild error %v, reference %v", c.name, err, wantErr)
		}
		if !strings.Contains(wantErr.Error(), c.want) {
			t.Fatalf("%s: error %q does not say %q", c.name, wantErr, c.want)
		}
	}
	// A valid terrain after the failures rebuilds cleanly in the same
	// storage.
	if err := reused.Rebuild(verts, [][3]int32{{0, 1, 2}, {1, 0, 4}}, &sc); err != nil {
		t.Fatal(err)
	}
	want, _ := refBuildEdges(reused.Tris)
	if !reflect.DeepEqual(reused.Edges, want) {
		t.Fatal("Rebuild after an error differs from the reference")
	}
}

// BenchmarkNew times building a 40x40-cell grid terrain from its vertex and
// triangle tables — orientation checks plus the edge table — fresh, as New
// does, and into reused storage, as a tile's set-up arena does.
func BenchmarkNew(b *testing.B) {
	g, err := Grid{Rows: 40, Cols: 40, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return math.Sin(0.3*float64(i)) + 0.1*float64(j%5) }}.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(g.Verts, g.Tris); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		var t Terrain
		var sc Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := t.Rebuild(g.Verts, g.Tris, &sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
