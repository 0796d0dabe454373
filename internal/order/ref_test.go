package order

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/workload"
)

// refCompute is the depth-order construction that the CSR DAG and the
// counting sort replaced, kept as the reference ComputeInto must reproduce
// field for field: per-triangle adjacency slices, a Kahn sweep that sorts
// each frontier, and a comparison sort of (key, edge id) pairs with the
// unconstrained key at MaxInt64-1 and exit edges at MaxInt64.
func refCompute(t *terrain.Terrain) (*Result, error) {
	nt := len(t.Tris)
	adj := make([][]int32, nt)
	res := &Result{
		FrontTri:  make([]int32, len(t.Edges)),
		BehindTri: make([]int32, len(t.Edges)),
	}
	behindOf := make([]int32, len(t.Edges))
	parallelEdge := make([]bool, len(t.Edges))
	for ei, e := range t.Edges {
		p, q := t.PlanPt(e.V0), t.PlanPt(e.V1)
		dy := q.Z - p.Z
		scale := math.Abs(q.X-p.X) + math.Abs(dy)
		if scale < 1 {
			scale = 1
		}
		if math.Abs(dy) <= geom.Eps*scale {
			parallelEdge[ei] = true
			behindOf[ei] = terrain.NoTri
			res.FrontTri[ei], res.BehindTri[ei] = terrain.NoTri, terrain.NoTri
			continue
		}
		var front, behind int32
		if dy < 0 {
			front, behind = e.Right, e.Left
		} else {
			front, behind = e.Left, e.Right
		}
		behindOf[ei] = behind
		res.FrontTri[ei], res.BehindTri[ei] = front, behind
		if front != terrain.NoTri && behind != terrain.NoTri {
			adj[front] = append(adj[front], behind)
			res.Constraints++
		}
	}

	indeg := make([]int32, nt)
	for _, out := range adj {
		for _, v := range out {
			indeg[v]++
		}
	}
	res.TriTopo = make([]int32, nt)
	res.TriLayer = make([]int32, nt)
	var frontier, next []int32
	for v := 0; v < nt; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, int32(v))
		}
	}
	processed := 0
	for len(frontier) > 0 {
		layer := int32(res.Layers)
		res.Layers++
		slices.SortFunc(frontier, cmp.Compare[int32])
		for _, v := range frontier {
			res.TriTopo[v] = int32(processed)
			res.TriLayer[v] = layer
			processed++
			for _, w := range adj[v] {
				if indeg[w]--; indeg[w] == 0 {
					next = append(next, w)
				}
			}
		}
		frontier, next = next, frontier[:0]
	}
	if processed != nt {
		return nil, fmt.Errorf("order: in-front relation of terrain projection: order: cycle detected (%d of %d vertices unsorted)", nt-processed, nt)
	}

	const inf = int64(math.MaxInt64)
	type keyed struct {
		key int64
		e   int32
	}
	keys := make([]keyed, len(t.Edges))
	for ei, e := range t.Edges {
		var k int64
		switch {
		case parallelEdge[ei]:
			k = inf - 1
			if e.Left != terrain.NoTri {
				k = int64(res.TriTopo[e.Left])
			}
			if e.Right != terrain.NoTri && int64(res.TriTopo[e.Right]) < k {
				k = int64(res.TriTopo[e.Right])
			}
		case behindOf[ei] == terrain.NoTri:
			k = inf
		default:
			k = int64(res.TriTopo[behindOf[ei]])
		}
		keys[ei] = keyed{key: k, e: int32(ei)}
	}
	slices.SortFunc(keys, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.e, b.e)
	})
	res.EdgeOrder = make([]int32, len(keys))
	res.PosOf = make([]int32, len(keys))
	for i, k := range keys {
		res.EdgeOrder[i] = k.e
		res.PosOf[k.e] = int32(i)
	}
	return res, nil
}

// orderCases returns random grid terrains of every generator family, each
// seen from the canonical view and through random perspective eyes, in
// sizes that make reused storage shrink and grow.
func orderCases(t *testing.T) []*terrain.Terrain {
	t.Helper()
	r := rand.New(rand.NewSource(23))
	var out []*terrain.Terrain
	for i, kind := range workload.Kinds {
		rows, cols := 2+r.Intn(24), 2+r.Intn(24)
		tt, err := workload.Generate(workload.Params{Kind: kind, Rows: rows, Cols: cols, Seed: int64(i), Amplitude: 5})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tt)
		for e := 0; e < 2; e++ {
			view := geom.PerspectiveTransform{Eye: geom.Pt3{
				X: -1 - 6*r.Float64(),
				Y: float64(cols) * (1.4*r.Float64() - 0.2),
				Z: 10 * r.Float64(),
			}}
			vt, err := tt.TransformShared(view.Apply)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, vt)
		}
	}
	// Axis-parallel edges of a flat, unsheared grid are the unconstrained
	// keys; an alternate-diagonal grid numbers its edges differently.
	flat, err := terrain.Grid{Rows: 5, Cols: 9, Dx: 1, Dy: 1, H: func(i, j int) float64 { return 0 }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	alt, err := terrain.Grid{Rows: 11, Cols: 6, Dx: 1, Dy: 1, AlternateDiagonals: true,
		H: func(i, j int) float64 { return float64((i*5+j*3)%7) * 0.4 }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// A hand-built terrain may carry edges no triangle bounds: a parallel
	// one takes the unconstrained key and a crossing one the exit key.
	loose := *flat
	loose.Edges = append([]terrain.Edge{{V0: 0, V1: 12, Left: terrain.NoTri, Right: terrain.NoTri}}, flat.Edges...)
	loose.Edges = append(loose.Edges, terrain.Edge{V0: 0, V1: 20, Left: terrain.NoTri, Right: terrain.NoTri})
	return append(out, flat, alt, &loose)
}

func TestComputeMatchesSortReference(t *testing.T) {
	for i, tt := range orderCases(t) {
		want, err := refCompute(tt)
		if err != nil {
			t.Fatalf("case %d: reference: %v", i, err)
		}
		got, err := Compute(tt)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%d edges): Compute differs from the comparison-sort reference", i, tt.NumEdges())
		}
	}
}

func TestComputeIntoScratchMatchesCompute(t *testing.T) {
	// One Result and Scratch across every case: reused storage must leave
	// no trace of the previous terrain.
	var reused Result
	var sc Scratch
	for i, tt := range orderCases(t) {
		want, err := Compute(tt)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := ComputeInto(tt, &reused, &sc); err != nil {
			t.Fatalf("case %d: ComputeInto: %v", i, err)
		}
		if !reflect.DeepEqual(&reused, want) {
			t.Fatalf("case %d: reused ComputeInto differs from Compute", i)
		}
	}
}

// BenchmarkCompute times the depth order of a 40x40-cell fractal grid seen
// through a perspective eye, fresh (Compute) and into reused storage
// (ComputeInto, as a tile's set-up arena runs it).
func BenchmarkCompute(b *testing.B) {
	g, err := workload.Generate(workload.Params{Kind: workload.Fractal, Rows: 40, Cols: 40, Seed: 1, Amplitude: 6})
	if err != nil {
		b.Fatal(err)
	}
	view := geom.PerspectiveTransform{Eye: geom.Pt3{X: -3, Y: 20, Z: 4}}
	tt, err := g.TransformShared(view.Apply)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Compute(tt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		var res Result
		var sc Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ComputeInto(tt, &res, &sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
