package hsr

import (
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"terrainhsr/internal/envelope"
	"terrainhsr/internal/profiletree"
	"terrainhsr/internal/workload"
)

// piecesFingerprint hashes the exact bits of a piece list.
func piecesFingerprint(ps []VisiblePiece) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, p := range ps {
		put(uint64(p.Edge))
		put(math.Float64bits(p.Span.X1))
		put(math.Float64bits(p.Span.Z1))
		put(math.Float64bits(p.Span.X2))
		put(math.Float64bits(p.Span.Z2))
	}
	return h.Sum64()
}

// TestSequentialTreeInPlaceCounters pins sequential-tree's counters and
// pieces on a fixed set of solves to the values the path-copying sweep
// produced before the profile ran in place: rewriting a node is charged
// where copying it was, and the treap shapes are the same, so TreeOps,
// TreeAllocs, Work, k and every piece bit must not move. A solve on an
// emptied pool and one on the Ops it left behind are both checked.
func TestSequentialTreeInPlaceCounters(t *testing.T) {
	cases := []struct {
		kind                      workload.Kind
		rows, cols                int
		seed                      int64
		hulls                     bool
		treeOps, treeAllocs, work int64
		k                         int
		pieces                    uint64
	}{
		{workload.Fractal, 24, 24, 1, false, 1671, 1671, 7918, 112, 0xc2d8d5cdf6d107cc},
		{workload.Fractal, 16, 16, 2, true, 17978, 17978, 27621, 88, 0x14123159a8f9ad51},
		{workload.Ridge, 20, 20, 3, false, 1740, 1740, 6372, 137, 0xd99f9135d0f95ced},
		{workload.Steps, 18, 18, 4, false, 14673, 14673, 21531, 794, 0x7692f8b0cc0ca22e},
		{workload.Rough, 16, 16, 5, true, 64781, 64781, 78519, 190, 0x31a246a80001c0af},
		{workload.Massive, 40, 40, 1, false, 13528, 13528, 38061, 769, 0x508436b82f137a24},
	}
	for _, c := range cases {
		prep, err := Prepare(genT(t, c.kind, c.rows, c.cols, c.seed))
		if err != nil {
			t.Fatal(err)
		}
		emptyPool()
		fresh, err := prep.SequentialTree(c.hulls)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := prep.SequentialTree(c.hulls)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*Result{fresh, pooled} {
			got := [4]int64{res.Counters.TreeOps, res.Counters.TreeAllocs, res.Work(), int64(res.K())}
			want := [4]int64{c.treeOps, c.treeAllocs, c.work, int64(c.k)}
			if got != want {
				t.Errorf("%s %dx%d seed %d hulls=%v: (TreeOps, TreeAllocs, Work, k) = %v, want %v",
					c.kind, c.rows, c.cols, c.seed, c.hulls, got, want)
			}
			if fp := piecesFingerprint(res.Pieces); fp != c.pieces {
				t.Errorf("%s %dx%d seed %d hulls=%v: pieces fingerprint %#x, want %#x",
					c.kind, c.rows, c.cols, c.seed, c.hulls, fp, c.pieces)
			}
		}
	}
}

// TestOpsPoolSequentialTreeThenParallel: a sequential-tree solve sets its
// pooled Ops in place, and the pool must hand it back persistent. A
// ParallelOS solve after it, and after a solve in the other hull mode,
// matches one on an emptied pool byte for byte, and a profile version
// stays intact after a later splice.
func TestOpsPoolSequentialTreeThenParallel(t *testing.T) {
	prep, err := Prepare(genT(t, workload.Fractal, 12, 12, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, hulls := range []bool{false, true} {
		emptyPool()
		fresh, err := prep.ParallelOS(OSOptions{Workers: 2, WithHulls: hulls})
		if err != nil {
			t.Fatal(err)
		}
		emptyPool()
		if _, err := prep.SequentialTree(hulls); err != nil {
			t.Fatal(err)
		}
		if _, err := prep.ParallelOS(OSOptions{Workers: 2, WithHulls: !hulls}); err != nil {
			t.Fatal(err)
		}
		pooled, err := prep.ParallelOS(OSOptions{Workers: 2, WithHulls: hulls})
		if err != nil {
			t.Fatal(err)
		}
		piecesIdentical(t, "parallel after sequential-tree on one pool", fresh.Pieces, pooled.Pieces)

		if _, err := prep.SequentialTree(hulls); err != nil {
			t.Fatal(err)
		}
		ops := pool.acquire(1, hulls)
		o := ops[0]
		if o.P.InPlace {
			t.Fatal("the pool handed out an Ops still in place")
		}
		base := envelope.Profile{{X1: 0, Z1: 0, X2: 10, Z2: 0, Edge: 0}, {X1: 10, Z1: 0, X2: 20, Z2: 5, Edge: 1}}
		v0 := o.FromProfile(base)
		v1 := o.Splice(v0, []profiletree.Run{{X1: 5, X2: 15, Pieces: []envelope.Piece{{X1: 5, Z1: 9, X2: 15, Z2: 9, Edge: 2}}}})
		if got := profiletree.ToProfile(v0); !slices.Equal(got, base) {
			t.Fatalf("older version changed by a later splice: %+v", got)
		}
		if v1.Size() != 3 {
			t.Fatalf("spliced version has %d pieces, want 3", v1.Size())
		}
		pool.release(ops)
	}
}

// TestSequentialTreeInPlaceFootprint pins the slab footprint of a pooled
// sequential-tree solve of a 128x128 massive terrain. Path copying carved a
// node for every write, 163,001 of them (its TreeAllocs). In place, dropped
// pieces are carved again, so the slabs hold about the largest profile (217
// pieces on this terrain) plus one run batch (at most 2 pieces); the budget
// is twice that.
func TestSequentialTreeInPlaceFootprint(t *testing.T) {
	prep, err := Prepare(genT(t, workload.Massive, 128, 128, 1))
	if err != nil {
		t.Fatal(err)
	}
	emptyPool()
	res, err := prep.SequentialTree(false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.TreeAllocs != 163001 {
		t.Fatalf("TreeAllocs = %d, want the path-copying count 163001", res.Counters.TreeAllocs)
	}
	// The solve's Ops is the emptied pool's only one; read it before an
	// acquire rewinds it.
	o := pool.free[hullIdx(false)][0]
	if carved, budget := o.P.Carved(), 2*(217+2); carved > budget {
		t.Fatalf("solve carved %d tree nodes, budget %d", carved, budget)
	}
}
