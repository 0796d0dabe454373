package persist

import "fmt"

// Arena supplies treap priorities and counts node allocations. Each worker
// goroutine owns its own Arena; the zero value is NOT ready to use — call
// NewArena with a distinct seed per worker.
type Arena struct {
	rng    uint64
	seed   uint64
	Allocs int64
}

// NewArena creates an arena with the given seed. Distinct seeds across
// concurrent workers keep independent treaps balanced; note that treap
// shape leaks into solve output at float-rounding granularity (pruning and
// piece-splitting order follow the tree), so builds that must be
// reproducible fix their priority stream with Reseed rather than relying
// on whichever arena they were handed.
func NewArena(seed uint64) *Arena {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Arena{rng: seed, seed: seed}
}

// Reset rewinds the arena to its initial state: the priority stream starts
// over from the original seed and the allocation counter returns to zero.
// Repeated runs of the same build sequence after a Reset therefore produce
// identically shaped treaps with identical counters.
func (a *Arena) Reset() {
	a.rng = a.seed
	a.Allocs = 0
}

// Reseed restarts the priority stream from the given seed without touching
// the allocation counter. Callers that need bit-identical treaps across
// runs — regardless of which worker or recycled arena performs a build —
// reseed with a value derived from the task's identity, making every
// priority a pure function of (task, allocation index) instead of the
// arena's history. Treap shape decides tie-breaking traversal order in
// epsilon-close geometry queries, so this is what makes solve output
// deterministic, not just balanced.
func (a *Arena) Reseed(seed uint64) {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	a.rng = seed
}

// NextPrio draws the next treap priority from the arena's stream. Trees
// built on one arena (here and in package profiletree) draw from it in the
// order their nodes are created.
func (a *Arena) NextPrio() uint64 {
	// xorshift64*
	x := a.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	a.rng = x
	return x * 0x2545f4914f6cdd1d
}

// Node is an immutable treap node over values of type T with subtree
// aggregate A.
type Node[T, A any] struct {
	Val  T
	Agg  A
	L, R *Node[T, A]
	prio uint64
	size int32
}

// Size returns the number of values in the subtree (0 for nil).
func Size[T, A any](n *Node[T, A]) int {
	if n == nil {
		return 0
	}
	return int(n.size)
}

// slabNodes is the chunk size of the slab allocator backing node creation.
// Chunked allocation turns ~n small mallocs into n/slabNodes large ones and
// lets an Ops be rewound and reused across solves (see Reset).
const slabNodes = 1024

// Ops bundles the aggregate recomputation used on node creation. Aggregates
// may allocate through the same arena (e.g. hull chains).
//
// Nodes are carved out of slabs owned by the Ops. Like the Arena, an Ops is
// confined to one goroutine; the nodes it creates are immutable and may be
// shared freely.
type Ops[T, A any] struct {
	Arena *Arena
	// Agg computes the subtree aggregate for a node with value v and
	// children l, r (either may be nil).
	Agg func(v T, l, r *Node[T, A]) A

	slabs [][]Node[T, A]
	cur   int // slab currently carved from
	used  int // nodes handed out of slabs[cur]
}

// NewNode creates a node with a fresh priority.
func (o *Ops[T, A]) NewNode(v T, l, r *Node[T, A]) *Node[T, A] {
	return o.make(v, l, r, o.Arena.NextPrio())
}

// Reset rewinds the slab allocator so the Ops can be reused for another
// solve without reallocating: retained slabs are carved from again, from the
// start. Every node previously created through o is invalidated — the caller
// must guarantee that no tree from before the Reset is referenced afterwards.
// Rewound slabs are not zeroed, so memory referenced by stale nodes stays
// reachable until overwritten. The retained slabs hold as many nodes as the
// largest solve the Ops has served created.
func (o *Ops[T, A]) Reset() {
	o.cur, o.used = 0, 0
}

// alloc hands out the next node slot, growing the slab list on demand.
func (o *Ops[T, A]) alloc() *Node[T, A] {
	if o.cur < len(o.slabs) && o.used < slabNodes {
		n := &o.slabs[o.cur][o.used]
		o.used++
		return n
	}
	if o.cur+1 < len(o.slabs) {
		o.cur++
	} else {
		o.slabs = append(o.slabs, make([]Node[T, A], slabNodes))
		o.cur = len(o.slabs) - 1
	}
	o.used = 1
	return &o.slabs[o.cur][0]
}

func (o *Ops[T, A]) make(v T, l, r *Node[T, A], prio uint64) *Node[T, A] {
	o.Arena.Allocs++
	n := o.alloc()
	*n = Node[T, A]{Val: v, L: l, R: r, prio: prio, size: int32(1 + Size(l) + Size(r))}
	n.Agg = o.Agg(v, l, r)
	return n
}

// remake returns a copy of t's value and priority over the children l, r.
func (o *Ops[T, A]) remake(t, l, r *Node[T, A]) *Node[T, A] {
	return o.make(t.Val, l, r, t.prio)
}

// Join concatenates two sequences (all of l before all of r), copying the
// merge path.
func (o *Ops[T, A]) Join(l, r *Node[T, A]) *Node[T, A] {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio >= r.prio:
		return o.remake(l, l.L, o.Join(l.R, r))
	default:
		return o.remake(r, o.Join(l, r.L), r.R)
	}
}

// SplitRank splits the sequence into the first k values and the rest.
func (o *Ops[T, A]) SplitRank(t *Node[T, A], k int) (l, r *Node[T, A]) {
	if t == nil {
		return nil, nil
	}
	if k <= 0 {
		return nil, t
	}
	if k >= Size(t) {
		return t, nil
	}
	ls := Size(t.L)
	if k <= ls {
		a, b := o.SplitRank(t.L, k)
		return a, o.remake(t, b, t.R)
	}
	a, b := o.SplitRank(t.R, k-ls-1)
	return o.remake(t, t.L, a), b
}

// SplitBy splits by a monotone predicate: values v with pred(v) true form
// the left result (pred must be true on a prefix of the sequence).
func (o *Ops[T, A]) SplitBy(t *Node[T, A], pred func(T) bool) (l, r *Node[T, A]) {
	if t == nil {
		return nil, nil
	}
	if pred(t.Val) {
		a, b := o.SplitBy(t.R, pred)
		return o.remake(t, t.L, a), b
	}
	a, b := o.SplitBy(t.L, pred)
	return a, o.remake(t, b, t.R)
}

// Build constructs a treap from a sequence in O(n) using the monotonic
// stack cartesian-tree construction (aggregates computed bottom-up once).
func (o *Ops[T, A]) Build(vals []T) *Node[T, A] {
	if len(vals) == 0 {
		return nil
	}
	type item struct {
		val  T
		prio uint64
		l, r *Node[T, A] // children fixed so far (not yet aggregated)
	}
	stack := make([]item, 0, 32)
	// finalize converts an item (and its already-finalized children) into a node.
	finalize := func(it item) *Node[T, A] {
		return o.make(it.val, it.l, it.r, it.prio)
	}
	for _, v := range vals {
		it := item{val: v, prio: o.Arena.NextPrio()}
		var last *Node[T, A]
		for len(stack) > 0 && stack[len(stack)-1].prio < it.prio {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			top.r = last
			last = finalize(top)
		}
		it.l = last
		stack = append(stack, it)
	}
	var last *Node[T, A]
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		top.r = last
		last = finalize(top)
	}
	return last
}

// At returns the value at rank i (0-based).
func At[T, A any](t *Node[T, A], i int) T {
	if t == nil || i < 0 || i >= Size(t) {
		panic(fmt.Sprintf("persist: rank %d out of range (size %d)", i, Size(t)))
	}
	for {
		ls := Size(t.L)
		switch {
		case i < ls:
			t = t.L
		case i == ls:
			return t.Val
		default:
			i -= ls + 1
			t = t.R
		}
	}
}

// Last returns the final value of a non-empty subtree.
func Last[T, A any](t *Node[T, A]) T {
	for t.R != nil {
		t = t.R
	}
	return t.Val
}

// ForEach visits the sequence in order.
func ForEach[T, A any](t *Node[T, A], fn func(T)) {
	if t == nil {
		return
	}
	ForEach(t.L, fn)
	fn(t.Val)
	ForEach(t.R, fn)
}

// Slice materializes the sequence.
func Slice[T, A any](t *Node[T, A]) []T {
	out := make([]T, 0, Size(t))
	ForEach(t, func(v T) { out = append(out, v) })
	return out
}

// CheckHeap validates the treap invariants (test helper).
func CheckHeap[T, A any](t *Node[T, A]) error {
	if t == nil {
		return nil
	}
	if t.L != nil && t.L.prio > t.prio {
		return fmt.Errorf("persist: heap violation at left child")
	}
	if t.R != nil && t.R.prio > t.prio {
		return fmt.Errorf("persist: heap violation at right child")
	}
	if Size(t) != 1+Size(t.L)+Size(t.R) {
		return fmt.Errorf("persist: size mismatch")
	}
	if err := CheckHeap(t.L); err != nil {
		return err
	}
	return CheckHeap(t.R)
}
