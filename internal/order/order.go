package order

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"terrainhsr/internal/geom"
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
	res := new(Result)
	if err := ComputeInto(t, res, new(Scratch)); err != nil {
		return nil, err
	}
	return res, nil
}

// Scratch is the working memory of ComputeInto. The zero value is ready to
// use, and a Scratch keeps its capacity from one call to the next.
type Scratch struct {
	parallelEdge []bool
	// off and arcs hold the in-front DAG in compressed sparse rows: the
	// triangles behind triangle u are arcs[off[u]:off[u+1]], in edge order.
	off, arcs []int32
	// indeg, frontier and next are the Kahn sweep's state.
	indeg, frontier, next []int32
	// key and count are the counting sort's bucket per edge and per key.
	key, count []int32
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// ComputeInto computes what Compute returns into res, reusing the storage
// of res's slices and of sc: a caller that orders terrains of similar size
// in a loop allocates nothing once the buffers have grown. res is then
// backed by that storage and valid until its next ComputeInto. On error
// res's contents are unspecified.
func ComputeInto(t *terrain.Terrain, res *Result, sc *Scratch) error {
	nt, ne := len(t.Tris), len(t.Edges)
	res.FrontTri = resize(res.FrontTri, ne)
	res.BehindTri = resize(res.BehindTri, ne)
	res.Constraints = 0
	parallelEdge := resize(sc.parallelEdge, ne)
	off := resize(sc.off, nt+1)
	clear(off)
	for ei, e := range t.Edges {
		p, q := t.PlanPt(e.V0), t.PlanPt(e.V1)
		dy := q.Z - p.Z // world-y extent of the projected edge
		scale := math.Abs(q.X-p.X) + math.Abs(dy)
		if scale < 1 {
			scale = 1
		}
		if math.Abs(dy) <= geom.Eps*scale {
			parallelEdge[ei] = true
			res.FrontTri[ei], res.BehindTri[ei] = terrain.NoTri, terrain.NoTri
			continue
		}
		parallelEdge[ei] = false
		// The +x side of the directed plan line p->q has orientation sign
		// equal to sign(-dy); Left triangles sit on the +1 side.
		front, behind := e.Left, e.Right
		if dy < 0 {
			front, behind = e.Right, e.Left
		}
		res.FrontTri[ei], res.BehindTri[ei] = front, behind
		if front != terrain.NoTri && behind != terrain.NoTri {
			off[front+1]++
			res.Constraints++
		}
	}
	// The arcs of every triangle, in the order of the edges that make them.
	for u := 0; u < nt; u++ {
		off[u+1] += off[u]
	}
	arcs := resize(sc.arcs, res.Constraints)
	fill := resize(sc.next, nt) // borrowed: the sweep resets it
	copy(fill, off[:nt])
	for ei := range t.Edges {
		front, behind := res.FrontTri[ei], res.BehindTri[ei]
		if front != terrain.NoTri && behind != terrain.NoTri {
			arcs[fill[front]] = behind
			fill[front]++
		}
	}
	sc.parallelEdge, sc.off, sc.arcs, sc.next = parallelEdge, off, arcs, fill

	// Layered Kahn topological sort. Layer membership doubles as the round
	// index of the parallel algorithm.
	res.TriTopo = resize(res.TriTopo, nt)
	res.TriLayer = resize(res.TriLayer, nt)
	layers, err := layeredTopoSort(off, arcs, res.TriTopo, res.TriLayer, sc)
	if err != nil {
		return fmt.Errorf("order: in-front relation of terrain projection: %w", err)
	}
	res.Layers = layers

	// Key edges by the topological index of the triangle behind them, then
	// order them by key with a counting sort that is stable in the edge id:
	// the (key, edge id) order in O(n + nt). Keys 0..nt-1 are topological
	// indices, nt marks an unconstrained edge and nt+1 an exit edge.
	unconstrained, exit := int32(nt), int32(nt+1)
	key := resize(sc.key, ne)
	count := resize(sc.count, nt+2)
	clear(count)
	for ei, e := range t.Edges {
		var k int32
		switch {
		case parallelEdge[ei]:
			// Unconstrained: any position consistent with determinism.
			k = unconstrained
			if e.Left != terrain.NoTri {
				k = res.TriTopo[e.Left]
			}
			if e.Right != terrain.NoTri && res.TriTopo[e.Right] < k {
				k = res.TriTopo[e.Right]
			}
		case res.BehindTri[ei] == terrain.NoTri:
			k = exit // exit edge: safe at the very back
		default:
			k = res.TriTopo[res.BehindTri[ei]]
		}
		key[ei] = k
		count[k]++
	}
	start := int32(0)
	for k, c := range count {
		count[k] = start
		start += c
	}
	res.EdgeOrder = resize(res.EdgeOrder, ne)
	res.PosOf = resize(res.PosOf, ne)
	for ei, k := range key {
		pos := count[k]
		count[k]++
		res.EdgeOrder[pos] = int32(ei)
		res.PosOf[ei] = pos
	}
	sc.key, sc.count = key, count
	return nil
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
