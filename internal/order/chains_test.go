package order

import (
	"math/rand"
	"testing"

	"terrainhsr/internal/terrain"
)

// topoResult is the outcome of a layered topological sort, for the tests.
type topoResult struct {
	TopoIndex, LayerOf []int32
	Layers             int
}

// csrTopoSort runs layeredTopoSort on the DAG given by adjacency lists.
func csrTopoSort(n int, adj [][]int32) (*topoResult, error) {
	off := make([]int32, n+1)
	var arcs []int32
	for u := 0; u < n; u++ {
		arcs = append(arcs, adj[u]...)
		off[u+1] = int32(len(arcs))
	}
	res := &topoResult{TopoIndex: make([]int32, n), LayerOf: make([]int32, n)}
	layers, err := layeredTopoSort(off, arcs, res.TopoIndex, res.LayerOf, new(Scratch))
	if err != nil {
		return nil, err
	}
	res.Layers = layers
	return res, nil
}

func TestLayeredTopoSortBasic(t *testing.T) {
	// 0 -> 1 -> 3, 0 -> 2 -> 3
	adj := [][]int32{{1, 2}, {3}, {3}, nil}
	res, err := csrTopoSort(4, adj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Layers != 3 {
		t.Fatalf("layers %d", res.Layers)
	}
	if !(res.TopoIndex[0] < res.TopoIndex[1] && res.TopoIndex[1] < res.TopoIndex[3] && res.TopoIndex[2] < res.TopoIndex[3]) {
		t.Fatalf("invalid order: %v", res.TopoIndex)
	}
	if res.LayerOf[0] != 0 || res.LayerOf[3] != 2 {
		t.Fatalf("layers wrong: %v", res.LayerOf)
	}
}

func TestLayeredTopoSortCycle(t *testing.T) {
	adj := [][]int32{{1}, {2}, {0}}
	if _, err := csrTopoSort(3, adj); err == nil {
		t.Fatal("cycle not detected")
	}
	// Partial cycle: one free vertex, three in a cycle.
	adj2 := [][]int32{nil, {2}, {3}, {1}}
	if _, err := csrTopoSort(4, adj2); err == nil {
		t.Fatal("partial cycle not detected")
	}
}

func TestLayeredTopoSortEmptyAndSingle(t *testing.T) {
	if res, err := csrTopoSort(0, nil); err != nil || res.Layers != 0 {
		t.Fatalf("empty graph: %v %v", res, err)
	}
	res, err := csrTopoSort(1, [][]int32{nil})
	if err != nil || res.Layers != 1 || res.TopoIndex[0] != 0 {
		t.Fatalf("single vertex: %+v %v", res, err)
	}
}

func TestLayeredTopoSortRandomDAGs(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(60)
		adj := make([][]int32, n)
		// Arcs only forward in a hidden permutation: guaranteed acyclic.
		perm := r.Perm(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.1 {
					adj[perm[i]] = append(adj[perm[i]], int32(perm[j]))
				}
			}
		}
		res, err := csrTopoSort(n, adj)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for u, out := range adj {
			for _, v := range out {
				if res.TopoIndex[u] >= res.TopoIndex[v] {
					t.Fatalf("trial %d: arc %d->%d violated", trial, u, v)
				}
				if res.LayerOf[u] >= res.LayerOf[v] {
					t.Fatalf("trial %d: layer of %d not below %d", trial, u, v)
				}
			}
		}
	}
}

func chainGrid(t *testing.T, rows, cols int) (*terrain.Terrain, *Result) {
	t.Helper()
	tr, err := terrain.Grid{Rows: rows, Cols: cols, Dx: 1, Dy: 1,
		H: func(i, j int) float64 { return float64((i*7+j*3)%5) * 0.3 }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(tr)
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

func TestSeparatorsExistAndSpan(t *testing.T) {
	tr, res := chainGrid(t, 6, 5)
	chains := Separators(tr, res)
	if len(chains) == 0 {
		t.Fatal("no separator chains")
	}
	for _, c := range chains {
		lo, hi := c.YSpan(tr)
		// Each separator must span the full y-extent of the terrain (0..5).
		if lo > 1e-9 || hi < 5-1e-9 {
			t.Fatalf("chain level %d spans [%v,%v], want [0,5]", c.Level, lo, hi)
		}
	}
}

func TestSeparatorsMonotone(t *testing.T) {
	tr, res := chainGrid(t, 5, 7)
	for _, c := range Separators(tr, res) {
		if err := VerifyChainMonotone(tr, c, 1e-9); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSeparatorsCrossedInOrder(t *testing.T) {
	tr, res := chainGrid(t, 8, 6)
	chains := Separators(tr, res)
	ys := []float64{0.21, 1.47, 2.83, 3.56, 4.12, 5.77}
	if err := VerifySeparatorOrder(tr, res, chains, ys); err != nil {
		t.Fatal(err)
	}
}

func TestSeparatorsNilLayer(t *testing.T) {
	tr, _ := chainGrid(t, 3, 3)
	if out := Separators(tr, &Result{}); out != nil {
		t.Fatal("Separators without layers should return nil")
	}
}
