package persist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

type sumAgg = int

func intOps(a *Arena) *Ops[int, sumAgg] {
	return &Ops[int, sumAgg]{
		Arena: a,
		Agg: func(v int, l, r *Node[int, sumAgg]) sumAgg {
			s := v
			if l != nil {
				s += l.Agg
			}
			if r != nil {
				s += r.Agg
			}
			return s
		},
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestBuildRoundTrip(t *testing.T) {
	ops := intOps(NewArena(1))
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		tr := ops.Build(seq(n))
		if Size(tr) != n {
			t.Fatalf("n=%d: size %d", n, Size(tr))
		}
		got := Slice(tr)
		for i, v := range got {
			if v != i {
				t.Fatalf("n=%d: got[%d]=%d", n, i, v)
			}
		}
		if err := CheckHeap(tr); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestAggregateMaintained(t *testing.T) {
	ops := intOps(NewArena(2))
	tr := ops.Build(seq(100))
	if tr.Agg != 99*100/2 {
		t.Fatalf("agg %d", tr.Agg)
	}
	l, r := ops.SplitRank(tr, 30)
	if l.Agg != 29*30/2 {
		t.Fatalf("left agg %d", l.Agg)
	}
	if r.Agg != 99*100/2-29*30/2 {
		t.Fatalf("right agg %d", r.Agg)
	}
	j := ops.Join(l, r)
	if j.Agg != 99*100/2 {
		t.Fatalf("joined agg %d", j.Agg)
	}
}

func TestSplitJoinProperty(t *testing.T) {
	ops := intOps(NewArena(3))
	f := func(nRaw, kRaw uint16) bool {
		n := int(nRaw) % 300
		tr := ops.Build(seq(n))
		k := 0
		if n > 0 {
			k = int(kRaw) % (n + 1)
		}
		l, r := ops.SplitRank(tr, k)
		if Size(l) != k || Size(r) != n-k {
			return false
		}
		back := ops.Join(l, r)
		got := Slice(back)
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		// Persistence: the original tree is untouched.
		orig := Slice(tr)
		for i, v := range orig {
			if v != i {
				return false
			}
		}
		return CheckHeap(back) == nil
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSplitBy(t *testing.T) {
	ops := intOps(NewArena(4))
	tr := ops.Build(seq(50))
	l, r := ops.SplitBy(tr, func(v int) bool { return v < 17 })
	if Size(l) != 17 || Size(r) != 33 {
		t.Fatalf("sizes %d %d", Size(l), Size(r))
	}
	if Last[int, sumAgg](l) != 16 || At(r, 0) != 17 {
		t.Fatalf("boundary values wrong")
	}
	// Edge cases: all / none.
	l2, r2 := ops.SplitBy(tr, func(v int) bool { return true })
	if Size(l2) != 50 || r2 != nil {
		t.Fatal("split-all failed")
	}
	l3, r3 := ops.SplitBy(tr, func(v int) bool { return false })
	if l3 != nil || Size(r3) != 50 {
		t.Fatal("split-none failed")
	}
}

func TestAt(t *testing.T) {
	ops := intOps(NewArena(6))
	tr := ops.Build(seq(200))
	for i := 0; i < 200; i += 13 {
		if At(tr, i) != i {
			t.Fatalf("At(%d)=%d", i, At(tr, i))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range should panic")
		}
	}()
	At(tr, 200)
}

func TestPersistenceVersionsIndependent(t *testing.T) {
	ops := intOps(NewArena(7))
	v0 := ops.Build(seq(40))
	// Derive many versions; all must stay intact.
	versions := []*Node[int, sumAgg]{v0}
	cur := v0
	for i := 0; i < 10; i++ {
		l, r := ops.SplitRank(cur, 10+i)
		mid := ops.NewNode(1000+i, nil, nil)
		cur = ops.Join(ops.Join(l, mid), r)
		versions = append(versions, cur)
	}
	for vi, v := range versions {
		got := Slice(v)
		if len(got) != 40+vi {
			t.Fatalf("version %d has %d values", vi, len(got))
		}
		// v0's values must be a subsequence preserved in order.
		want := 0
		for _, x := range got {
			if x == want {
				want++
			}
		}
		if want != 40 {
			t.Fatalf("version %d lost original values (reached %d)", vi, want)
		}
	}
}

func TestAllocCounting(t *testing.T) {
	a := NewArena(8)
	ops := intOps(a)
	ops.Build(seq(100))
	if a.Allocs != 100 {
		t.Fatalf("build allocs %d, want 100", a.Allocs)
	}
	before := a.Allocs
	tr := ops.Build(seq(64))
	l, r := ops.SplitRank(tr, 32)
	ops.Join(l, r)
	delta := a.Allocs - before - 64
	// Split+join copies only O(log n) nodes.
	if delta > 64 {
		t.Fatalf("split+join allocated %d nodes, expected O(log n)", delta)
	}
}

func TestFirstLast(t *testing.T) {
	ops := intOps(NewArena(9))
	tr := ops.Build([]int{5, 6, 7})
	if Last[int, sumAgg](tr) != 7 {
		t.Fatal("Last wrong")
	}
}

func TestArenaReset(t *testing.T) {
	a := NewArena(77)
	p1 := a.NextPrio()
	p2 := a.NextPrio()
	a.Allocs = 9
	a.Reset()
	if a.Allocs != 0 {
		t.Fatalf("Allocs after reset: %d", a.Allocs)
	}
	if q1, q2 := a.NextPrio(), a.NextPrio(); q1 != p1 || q2 != p2 {
		t.Fatal("priority stream did not restart from the seed")
	}
}

func TestOpsResetReusesSlabs(t *testing.T) {
	ops := intOps(NewArena(3))
	const n = 5000 // several slabs worth
	tr := ops.Build(seq(n))
	firstVals := Slice(tr)
	firstRoot := tr
	slabCount := len(ops.slabs)

	ops.Arena.Reset()
	ops.Reset()
	tr2 := ops.Build(seq(n))
	if len(ops.slabs) != slabCount {
		t.Fatalf("reset rebuild grew slabs: %d -> %d", slabCount, len(ops.slabs))
	}
	if tr2 != firstRoot {
		// Same arena seed and same build sequence must reuse the very same
		// slab slots in the same order.
		t.Fatal("reset rebuild did not reuse the first slab slots")
	}
	if err := CheckHeap(tr2); err != nil {
		t.Fatal(err)
	}
	got := Slice(tr2)
	for i := range got {
		if got[i] != firstVals[i] {
			t.Fatalf("value %d differs after reuse: %d vs %d", i, got[i], firstVals[i])
		}
	}
	if ops.Arena.Allocs != int64(n) {
		t.Fatalf("allocs after reset rebuild: %d, want %d", ops.Arena.Allocs, n)
	}
}

func TestOpsSlabGrowthAcrossEpochs(t *testing.T) {
	// A second epoch larger than the first must extend the slab list, not
	// corrupt it.
	ops := intOps(NewArena(4))
	ops.Build(seq(100))
	ops.Arena.Reset()
	ops.Reset()
	tr := ops.Build(seq(3000))
	if Size(tr) != 3000 {
		t.Fatalf("size %d", Size(tr))
	}
	if err := CheckHeap(tr); err != nil {
		t.Fatal(err)
	}
	vals := Slice(tr)
	for i, v := range vals {
		if v != i {
			t.Fatalf("vals[%d] = %d", i, v)
		}
	}
}
