package order

import (
	"fmt"
	"slices"
)

// layeredTopoSort orders the vertices of the DAG held in compressed sparse
// rows — arcs[off[u]:off[u+1]] are the heads of u's arcs, an arc u -> v
// meaning u before v — by layered Kahn elimination. It writes each vertex's
// position in the linear extension to topo and its Kahn layer (the parallel
// round in which it is removed) to layerOf, both of length len(off)-1, and
// returns the number of layers: the depth of the parallel sort. Within a
// layer, vertices are processed in ascending index order for determinism.
// The sweep's state lives in sc. It returns an error naming the size of the
// unsorted remainder if the graph has a cycle.
func layeredTopoSort(off, arcs, topo, layerOf []int32, sc *Scratch) (int, error) {
	n := len(off) - 1
	indeg := resize(sc.indeg, n)
	clear(indeg)
	for _, v := range arcs {
		indeg[v]++
	}
	frontier := sc.frontier[:0]
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, int32(v))
		}
	}
	next := sc.next[:0]
	layers, processed := 0, 0
	for len(frontier) > 0 {
		slices.Sort(frontier)
		for _, v := range frontier {
			topo[v] = int32(processed)
			layerOf[v] = int32(layers)
			processed++
			for _, w := range arcs[off[v]:off[v+1]] {
				if indeg[w]--; indeg[w] == 0 {
					next = append(next, w)
				}
			}
		}
		layers++
		frontier, next = next, frontier[:0]
	}
	sc.indeg, sc.frontier, sc.next = indeg, frontier, next
	if processed != n {
		return 0, fmt.Errorf("order: cycle detected (%d of %d vertices unsorted)", n-processed, n)
	}
	return layers, nil
}
