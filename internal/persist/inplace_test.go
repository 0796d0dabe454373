package persist

import (
	"fmt"
	"math/rand"
	"testing"
)

// sameTree reports where two trees differ in shape, value, priority, size
// or aggregate, or "" when they are node-for-node equal.
func sameTree(p, q *Node[int, sumAgg]) string {
	switch {
	case p == nil && q == nil:
		return ""
	case p == nil || q == nil:
		return fmt.Sprintf("nil vs non-nil (sizes %d, %d)", Size(p), Size(q))
	case p.Val != q.Val || p.prio != q.prio || p.size != q.size || p.Agg != q.Agg:
		return fmt.Sprintf("node %d/%d: prio %d/%d size %d/%d agg %d/%d",
			p.Val, q.Val, p.prio, q.prio, p.size, q.size, p.Agg, q.Agg)
	}
	if d := sameTree(p.L, q.L); d != "" {
		return d
	}
	return sameTree(p.R, q.R)
}

// TestInPlaceMatchesPersistent runs one random sequence of Build, Join,
// SplitRank, SplitBy and Drop in both modes from the same arena seed. Every
// live tree must have the same nodes (value, priority, size, aggregate) in
// the same shape after every step, and both arenas the same Allocs: a treap's
// shape is a function of its sequence and priorities, and a rewrite is
// charged where a copy is.
func TestInPlaceMatchesPersistent(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		per, inp := intOps(NewArena(uint64(seed))), intOps(NewArena(uint64(seed)))
		inp.InPlace = true
		var ps, is []*Node[int, sumAgg]
		next := 0 // values are unique, so SplitBy can cut at any rank
		take := func(i int) (*Node[int, sumAgg], *Node[int, sumAgg]) {
			p, q := ps[i], is[i]
			last := len(ps) - 1
			ps[i], is[i] = ps[last], is[last]
			ps, is = ps[:last], is[:last]
			return p, q
		}
		for step := 0; step < 400; step++ {
			op := r.Intn(5)
			if len(ps) < 2 {
				op = 0
			}
			switch op {
			case 0: // Build
				vals := make([]int, r.Intn(40))
				for i := range vals {
					vals[i] = next
					next++
				}
				ps, is = append(ps, per.Build(vals)), append(is, inp.Build(vals))
			case 1: // Join
				a, b := r.Intn(len(ps)), r.Intn(len(ps)-1)
				pa, ia := take(a)
				pb, ib := take(b)
				ps, is = append(ps, per.Join(pa, pb)), append(is, inp.Join(ia, ib))
			case 2: // SplitRank
				p, q := take(r.Intn(len(ps)))
				k := r.Intn(Size(p) + 2)
				pl, pr := per.SplitRank(p, k)
				il, ir := inp.SplitRank(q, k)
				ps, is = append(ps, pl, pr), append(is, il, ir)
			case 3: // SplitBy on a prefix of the in-order values
				p, q := take(r.Intn(len(ps)))
				vals := Slice(p)
				prefix := make(map[int]bool)
				for _, v := range vals[:r.Intn(len(vals)+1)] {
					prefix[v] = true
				}
				pred := func(v int) bool { return prefix[v] }
				pl, pr := per.SplitBy(p, pred)
				il, ir := inp.SplitBy(q, pred)
				ps, is = append(ps, pl, pr), append(is, il, ir)
			case 4: // Drop
				p, q := take(r.Intn(len(ps)))
				per.Drop(p)
				inp.Drop(q)
			}
			if per.Arena.Allocs != inp.Arena.Allocs {
				t.Fatalf("seed %d step %d (op %d): Allocs %d persistent, %d in place",
					seed, step, op, per.Arena.Allocs, inp.Arena.Allocs)
			}
			for i := range ps {
				if d := sameTree(ps[i], is[i]); d != "" {
					t.Fatalf("seed %d step %d (op %d) tree %d: %s", seed, step, op, i, d)
				}
				if err := CheckHeap(is[i]); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		if inp.Carved() >= per.Carved() {
			t.Fatalf("seed %d: in place carved %d nodes, persistent %d", seed, inp.Carved(), per.Carved())
		}
	}
}

// TestInPlaceDropRecycles: in place, a dropped tree's nodes are carved again
// before the slabs grow; in the persistent mode Drop leaves the tree intact.
func TestInPlaceDropRecycles(t *testing.T) {
	ops := intOps(NewArena(5))
	ops.InPlace = true
	const n = 3000
	for round := 0; round < 5; round++ {
		tr := ops.Build(seq(n))
		for i := 0; i < 50; i++ {
			l, r := ops.SplitRank(tr, (i*61)%n)
			tr = ops.Join(l, r)
		}
		if got := Slice(tr); len(got) != n || got[0] != 0 || got[n-1] != n-1 {
			t.Fatalf("round %d: in-place split/join lost values", round)
		}
		ops.Drop(tr)
	}
	if ops.Carved() != n {
		t.Fatalf("in place carved %d nodes over 5 builds of %d and their splits, want %d", ops.Carved(), n, n)
	}

	per := intOps(NewArena(5))
	tr := per.Build(seq(100))
	per.Drop(tr)
	per.Build(seq(100))
	if got := Slice(tr); len(got) != 100 || got[99] != 99 || CheckHeap(tr) != nil {
		t.Fatal("persistent Drop recycled a tree that may still be shared")
	}
}

// TestResetClearsInPlace: Reset returns an Ops to the persistent mode and
// forgets its free list, so a recycled Ops shares versions again.
func TestResetClearsInPlace(t *testing.T) {
	ops := intOps(NewArena(6))
	ops.InPlace = true
	ops.Drop(ops.Build(seq(10)))
	ops.Reset()
	if ops.InPlace || ops.free != nil {
		t.Fatal("Reset kept the in-place mode or its free list")
	}
	v0 := ops.Build(seq(20))
	l, r := ops.SplitRank(v0, 7)
	ops.Join(r, l)
	if got := Slice(v0); got[0] != 0 || got[19] != 19 || CheckHeap(v0) != nil {
		t.Fatal("an older version changed after Reset")
	}
}
