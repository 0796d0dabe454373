package hsr

import (
	"fmt"
	"sync"
	"testing"

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

func TestOpsPoolByteIdenticalResults(t *testing.T) {
	// Pooled arenas change treap shapes (recycled seeds, rewound slabs) but
	// must never change the computed pieces.
	tr := genT(t, workload.Fractal, 10, 10, 6)
	prep, err := Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, hulls := range []bool{false, true} {
		fresh, err := prep.ParallelOS(OSOptions{Workers: 2, WithHulls: hulls})
		if err != nil {
			t.Fatal(err)
		}
		pool := NewOpsPool()
		for round := 0; round < 3; round++ {
			pooled, err := prep.ParallelOS(OSOptions{Workers: 2, WithHulls: hulls, Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			piecesIdentical(t, "parallel pooled", fresh.Pieces, pooled.Pieces)
		}

		freshST, err := prep.SequentialTree(hulls)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			pooledST, err := prep.SequentialTreePooled(hulls, pool)
			if err != nil {
				t.Fatal(err)
			}
			piecesIdentical(t, "seqtree pooled", freshST.Pieces, pooledST.Pieces)
		}
	}
}

func TestOpsPoolRecyclesOps(t *testing.T) {
	p := NewOpsPool()
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

// TestOpsPoolConcurrentSolves runs 8 goroutines over one pool, each
// cycling through every pooled solver, and compares each answer byte for
// byte with an unpooled solve: recycled Ops and their query scratch must
// never leak one solve's state into another.
func TestOpsPoolConcurrentSolves(t *testing.T) {
	tr := genT(t, workload.Fractal, 14, 14, 3)
	prep, err := Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		name  string
		solve func(pool *OpsPool) (*Result, error)
	}
	parallelOS := func(workers int, hulls bool) func(*OpsPool) (*Result, error) {
		return func(pool *OpsPool) (*Result, error) {
			return prep.ParallelOS(OSOptions{Workers: workers, WithHulls: hulls, Pool: pool})
		}
	}
	variants := []variant{
		{"parallel workers=1", parallelOS(1, false)},
		{"parallel workers=2", parallelOS(2, false)},
		{"parallel-hulls", parallelOS(2, true)},
		{"sequential-tree", func(pool *OpsPool) (*Result, error) {
			if pool == nil {
				return prep.SequentialTree(false)
			}
			return prep.SequentialTreePooled(false, pool)
		}},
	}
	want := make([]*Result, len(variants))
	for i, v := range variants {
		if want[i], err = v.solve(nil); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewOpsPool()
	const goroutines, rounds = 8, 2
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(variants))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < rounds*len(variants); j++ {
				i := (g + j) % len(variants)
				r, err := variants[i].solve(pool)
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
