package order

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/parallel"
	"terrainhsr/internal/terrain"
)

// Result is the computed depth order and the statistics needed by the PRAM
// accounting and the experiments.
type Result struct {
	// EdgeOrder lists edge indices front-to-back (the paper's e_1..e_n).
	EdgeOrder []int32
	// PosOf[e] is the position of edge e within EdgeOrder.
	PosOf []int32
	// TriTopo[t] is the topological index of triangle t in the in-front DAG.
	TriTopo []int32
	// TriLayer[t] is the Kahn layer of triangle t (its parallel round).
	TriLayer []int32
	// Layers is the number of Kahn layers: the depth of the parallel
	// topological sort.
	Layers int
	// Constraints is the number of DAG arcs (interior crossing edges).
	Constraints int
	// FrontTri and BehindTri give, per edge, the adjacent triangle on the
	// viewer side and on the far side of the edge's plan line
	// (terrain.NoTri for the outer face). Both are NoTri for edges
	// parallel to the viewing direction, which no ray crosses.
	FrontTri, BehindTri []int32
}

// Compute derives the depth order for the terrain. It returns an error if
// the in-front relation contains a cycle, which cannot happen for a valid
// terrain projection and therefore indicates degenerate input.
func Compute(t *terrain.Terrain) (*Result, error) {
	nt := len(t.Tris)
	adj := make([][]int32, nt)
	res := &Result{
		FrontTri:  make([]int32, len(t.Edges)),
		BehindTri: make([]int32, len(t.Edges)),
	}

	// behindOf[e] = triangle on the +x side of edge e (NoTri if outside).
	behindOf := make([]int32, len(t.Edges))
	parallelEdge := make([]bool, len(t.Edges))
	for ei, e := range t.Edges {
		p, q := t.PlanPt(e.V0), t.PlanPt(e.V1)
		dy := q.Z - p.Z // world-y extent of the projected edge
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
		// The +x side of the directed plan line p->q has orientation sign
		// equal to sign(-dy); Left triangles sit on the +1 side.
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

	// Layered Kahn topological sort. Layer membership doubles as the round
	// index of the parallel algorithm.
	topo, err := layeredTopoSort(nt, adj)
	if err != nil {
		return nil, fmt.Errorf("order: in-front relation of terrain projection: %w", err)
	}
	res.TriTopo = topo.TopoIndex
	res.TriLayer = topo.LayerOf
	res.Layers = topo.Layers

	// Key edges by the topological index of the triangle behind them.
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
			// Unconstrained: any position consistent with determinism.
			k = inf - 1
			if e.Left != terrain.NoTri {
				k = int64(res.TriTopo[e.Left])
			}
			if e.Right != terrain.NoTri && int64(res.TriTopo[e.Right]) < k {
				k = int64(res.TriTopo[e.Right])
			}
		case behindOf[ei] == terrain.NoTri:
			k = inf // exit edge: safe at the very back
		default:
			k = int64(res.TriTopo[behindOf[ei]])
		}
		keys[ei] = keyed{key: k, e: int32(ei)}
	}
	parallel.SortFunc(0, keys, func(a, b keyed) int {
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

// RayCrossings returns the edges crossed by the viewing ray at world y,
// sorted by increasing crossing x, skipping crossings within tol of an edge
// endpoint. Used to verify that an order is a valid linear extension.
func RayCrossings(t *terrain.Terrain, y float64, tol float64) []int32 {
	type hit struct {
		x float64
		e int32
	}
	var hits []hit
	for ei, e := range t.Edges {
		p, q := t.PlanPt(e.V0), t.PlanPt(e.V1)
		dy := q.Z - p.Z
		if math.Abs(dy) <= tol {
			continue
		}
		u := (y - p.Z) / dy
		if u <= tol || u >= 1-tol {
			continue
		}
		hits = append(hits, hit{x: p.X + u*(q.X-p.X), e: int32(ei)})
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].x < hits[j].x })
	out := make([]int32, len(hits))
	for i, h := range hits {
		out[i] = h.e
	}
	return out
}

// VerifyLinearExtension checks, for the given sample of world-y values, that
// edges crossed by each viewing ray appear in increasing order positions.
func VerifyLinearExtension(t *terrain.Terrain, res *Result, ys []float64) error {
	for _, y := range ys {
		edges := RayCrossings(t, y, 1e-7)
		for i := 1; i < len(edges); i++ {
			if res.PosOf[edges[i-1]] >= res.PosOf[edges[i]] {
				return fmt.Errorf("order: ray y=%v crosses edge %d (pos %d) before edge %d (pos %d)",
					y, edges[i-1], res.PosOf[edges[i-1]], edges[i], res.PosOf[edges[i]])
			}
		}
	}
	return nil
}
