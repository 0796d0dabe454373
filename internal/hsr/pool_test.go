package hsr

import (
	"fmt"
	"sync"
	"testing"

	"terrainhsr/internal/profiletree"
	"terrainhsr/internal/workload"
)

func TestPhase2Name(t *testing.T) {
	cases := map[int]string{
		0:   "phase2os/layer-0",
		9:   "phase2os/layer-9",
		10:  "phase2os/layer-10",
		99:  "phase2os/layer-99",
		123: "phase2os/layer-123",
	}
	for d, want := range cases {
		if got := phase2Name(d); got != want {
			t.Errorf("phase2Name(%d) = %q, want %q", d, got, want)
		}
	}
}

func piecesIdentical(t *testing.T, label string, a, b []VisiblePiece) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: piece counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: piece %d differs: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// emptyPool drops the package pool's idle Ops, so the solves that follow
// build fresh ones: the reference side of the pool-history tests. No test
// in this package runs in parallel, so nothing else is using the pool.
func emptyPool() {
	pool.mu.Lock()
	pool.free = [2][]*profiletree.Ops{}
	pool.mu.Unlock()
}

// servePool runs both tree kernels in both hull modes on prep, leaving the
// package pool with Ops of every kind of history: the pooled side of the
// pool-history tests solves after it.
func servePool(t testing.TB, prep *Prepared) {
	t.Helper()
	for _, hulls := range []bool{false, true} {
		if _, err := prep.ParallelOS(OSOptions{Workers: 2, WithHulls: hulls}); err != nil {
			t.Fatal(err)
		}
		if _, err := prep.SequentialTree(hulls); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpsPoolByteIdenticalResults(t *testing.T) {
	// Recycled arenas (other priority streams, rewound slabs, the other
	// kernel's in-place history) must never change the computed pieces.
	prep := prepT(t, genT(t, workload.Fractal, 10, 10, 6))
	other := prepT(t, genT(t, workload.Massive, 12, 12, 2))
	for _, hulls := range []bool{false, true} {
		emptyPool()
		fresh, err := prep.ParallelOS(OSOptions{Workers: 2, WithHulls: hulls})
		if err != nil {
			t.Fatal(err)
		}
		emptyPool()
		freshST, err := prep.SequentialTree(hulls)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			servePool(t, other)
			pooled, err := prep.ParallelOS(OSOptions{Workers: 2, WithHulls: hulls})
			if err != nil {
				t.Fatal(err)
			}
			piecesIdentical(t, "parallel pooled", fresh.Pieces, pooled.Pieces)
			servePool(t, other)
			pooledST, err := prep.SequentialTree(hulls)
			if err != nil {
				t.Fatal(err)
			}
			piecesIdentical(t, "seqtree pooled", freshST.Pieces, pooledST.Pieces)
		}
	}
}

func TestOpsPoolRecyclesOps(t *testing.T) {
	p := new(opsPool)
	first := p.acquire(3, false)
	p.release(first)
	second := p.acquire(3, false)
	// LIFO free list: all three must come back (any order).
	seen := map[any]bool{}
	for _, o := range first {
		seen[o] = true
	}
	for _, o := range second {
		if !seen[o] {
			t.Fatal("acquire after release created a fresh Ops instead of recycling")
		}
	}
	// Hull ops live in a separate free list.
	hullOps := p.acquire(1, true)
	if !hullOps[0].WithHulls {
		t.Fatal("hull acquire returned summary-mode ops")
	}
	if seen[hullOps[0]] {
		t.Fatal("hull acquire recycled a summary-mode ops")
	}
	p.release(second)
	p.release(hullOps)
}

// TestOpsPoolConcurrentSolves runs 8 goroutines over the package pool, each
// cycling through every tree kernel and hull mode, and compares each answer
// byte for byte with a solve on an emptied pool: recycled Ops and their
// query scratch must never leak one solve's state into another.
func TestOpsPoolConcurrentSolves(t *testing.T) {
	prep := prepT(t, genT(t, workload.Fractal, 14, 14, 3))
	type variant struct {
		name  string
		solve func() (*Result, error)
	}
	parallelOS := func(workers int, hulls bool) func() (*Result, error) {
		return func() (*Result, error) {
			return prep.ParallelOS(OSOptions{Workers: workers, WithHulls: hulls})
		}
	}
	variants := []variant{
		{"parallel workers=1", parallelOS(1, false)},
		{"parallel workers=2", parallelOS(2, false)},
		{"parallel-hulls", parallelOS(2, true)},
		{"sequential-tree", func() (*Result, error) { return prep.SequentialTree(false) }},
		{"sequential-tree hulls", func() (*Result, error) { return prep.SequentialTree(true) }},
	}
	want := make([]*Result, len(variants))
	for i, v := range variants {
		emptyPool()
		var err error
		if want[i], err = v.solve(); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, rounds = 8, 2
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(variants))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < rounds*len(variants); j++ {
				i := (g + j) % len(variants)
				r, err := variants[i].solve()
				if err != nil {
					errs <- err
					continue
				}
				if err := samePieces(want[i].Pieces, r.Pieces); err != nil {
					errs <- fmt.Errorf("%s: %w", variants[i].name, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// samePieces reports the first difference between two piece lists.
func samePieces(want, got []VisiblePiece) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d pieces, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("piece %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}
