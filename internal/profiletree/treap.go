package profiletree

import (
	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/hull"
)

// Node is a profile-tree node: one profile piece, the summary of its
// subtree, and the treap links. Nodes are immutable unless the Ops that made
// them runs in place (Nodes.InPlace).
type Node struct {
	Val  envelope.Piece
	Agg  Agg
	L, R *Node
	prio uint64
	size int32
}

// size returns the number of pieces in the subtree (0 for nil).
func size(n *Node) int {
	if n == nil {
		return 0
	}
	return int(n.size)
}

// slabNodes is the chunk size of the node slabs: one allocation per
// slabNodes nodes, and an Ops rewinds its slabs for the next solve (Reset).
const slabNodes = 1024

// Nodes is an Ops' node store: slabs carved in order and, in place, a free
// list of dropped nodes that carving draws from first. Ops.Reset rewinds the
// slabs without zeroing them, and they keep the most nodes any solve carved:
// in the persistent mode every node its splices copied, in place about its
// largest live tree plus one operation's dropped material.
type Nodes struct {
	// InPlace switches the tree operations from path copying to rewriting
	// the path's nodes, and makes dropped trees recycle their nodes. It is
	// for a caller that keeps only the current version of its trees, as the
	// sequential sweep keeps only the current profile: every tree passed to
	// an operation is consumed. A treap's shape is a function of its
	// sequence and priorities, and each rewrite is charged to Arena.Allocs
	// where a copy would be, so both modes build the same shapes with the
	// same aggregates and counts. Ops.Reset returns to the persistent mode.
	InPlace bool

	slabs [][]Node
	cur   int   // slab currently carved from
	used  int   // nodes handed out of slabs[cur]
	free  *Node // dropped nodes, linked through L
}

// Carved returns the number of slab nodes handed out since the last Reset:
// the high-water mark of the nodes the trees (and, in place, the free list)
// have held. It is a test and diagnostic accessor.
func (s *Nodes) Carved() int {
	return s.cur*slabNodes + s.used
}

// reset rewinds the slabs, empties the free list and returns to the
// persistent mode.
func (s *Nodes) reset() {
	s.cur, s.used = 0, 0
	s.free = nil
	s.InPlace = false
}

// alloc hands out a dropped node or the next slab slot.
func (s *Nodes) alloc() *Node {
	if n := s.free; n != nil {
		s.free = n.L
		return n
	}
	if s.cur < len(s.slabs) && s.used < slabNodes {
		n := &s.slabs[s.cur][s.used]
		s.used++
		return n
	}
	if s.cur+1 < len(s.slabs) {
		s.cur++
	} else {
		s.slabs = append(s.slabs, make([]Node, slabNodes))
		s.cur = len(s.slabs) - 1
	}
	s.used = 1
	return &s.slabs[s.cur][0]
}

// agg recomputes n's size and subtree summary from its piece and children.
// In hull mode the chains are merged through o.H, which draws priorities
// and charges allocations on the same arena.
func (o *Ops) agg(n *Node) {
	l, r := n.L, n.R
	pc := &n.Val
	a := &n.Agg
	n.size = 1
	a.X1, a.X2 = pc.X1, pc.X2
	a.ZMin, a.ZMax = min(pc.Z1, pc.Z2), max(pc.Z1, pc.Z2)
	a.HasGap = false
	if l != nil {
		n.size += l.size
		a.X1 = l.Agg.X1
		a.ZMin = min(a.ZMin, l.Agg.ZMin)
		a.ZMax = max(a.ZMax, l.Agg.ZMax)
		a.HasGap = l.Agg.HasGap || pc.X1 > l.Agg.X2+geom.Eps
	}
	if r != nil {
		n.size += r.size
		a.X2 = r.Agg.X2
		a.ZMin = min(a.ZMin, r.Agg.ZMin)
		a.ZMax = max(a.ZMax, r.Agg.ZMax)
		a.HasGap = a.HasGap || r.Agg.HasGap || r.Agg.X1 > pc.X2+geom.Eps
	}
	if !o.WithHulls {
		a.Hulls = nil
		return
	}
	p1 := geom.Pt2{X: pc.X1, Z: pc.Z1}
	p2 := geom.Pt2{X: pc.X2, Z: pc.Z2}
	lower := hull.Build2(o.H, p1, p2, true)
	upper := hull.Build2(o.H, p1, p2, false)
	if l != nil {
		lower = o.H.MergeDisjoint(l.Agg.Lower, lower)
		upper = o.H.MergeDisjoint(l.Agg.Upper, upper)
	}
	if r != nil {
		lower = o.H.MergeDisjoint(lower, r.Agg.Lower)
		upper = o.H.MergeDisjoint(upper, r.Agg.Upper)
	}
	a.Hulls = o.newHulls(lower, upper)
}

// make creates a node with piece v, children l, r and priority prio.
func (o *Ops) make(v envelope.Piece, l, r *Node, prio uint64) *Node {
	o.Arena.Allocs++
	n := o.P.alloc()
	n.Val, n.L, n.R, n.prio = v, l, r, prio
	o.agg(n)
	return n
}

// remake returns t's piece and priority over the children l, r: a copy of t
// in the persistent mode, t itself rewritten in place. Both are charged as
// one allocation.
func (o *Ops) remake(t, l, r *Node) *Node {
	if !o.P.InPlace {
		return o.make(t.Val, l, r, t.prio)
	}
	o.Arena.Allocs++
	t.L, t.R = l, r
	o.agg(t)
	return t
}

// join concatenates two sequences (all of l before all of r) along the
// merge path.
func (o *Ops) join(l, r *Node) *Node {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio >= r.prio:
		return o.remake(l, l.L, o.join(l.R, r))
	default:
		return o.remake(r, o.join(l, r.L), r.R)
	}
}

// splitRank splits the sequence into its first k pieces and the rest.
func (o *Ops) splitRank(t *Node, k int) (l, r *Node) {
	if t == nil {
		return nil, nil
	}
	if k <= 0 {
		return nil, t
	}
	if k >= size(t) {
		return t, nil
	}
	ls := size(t.L)
	if k <= ls {
		a, b := o.splitRank(t.L, k)
		return a, o.remake(t, b, t.R)
	}
	a, b := o.splitRank(t.R, k-ls-1)
	return o.remake(t, t.L, a), b
}

// splitBefore splits the sequence into the pieces that start before x and
// the rest.
func (o *Ops) splitBefore(t *Node, x float64) (l, r *Node) {
	if t == nil {
		return nil, nil
	}
	if t.Val.X1 < x {
		a, b := o.splitBefore(t.R, x)
		return o.remake(t, t.L, a), b
	}
	a, b := o.splitBefore(t.L, x)
	return a, o.remake(t, b, t.R)
}

// buildItem is a piece on build's right spine whose children are fixed so
// far but not yet aggregated.
type buildItem struct {
	val  envelope.Piece
	prio uint64
	l    *Node
}

// build constructs a treap over vals in O(n) with the monotonic-stack
// cartesian-tree construction, aggregating each node once, bottom-up. A
// piece's priority is drawn before the nodes it completes are made, which
// in hull mode draw their chains' priorities from the same arena.
func (o *Ops) build(vals []envelope.Piece) *Node {
	if len(vals) == 0 {
		return nil
	}
	stack := make([]buildItem, 0, 32)
	for _, v := range vals {
		it := buildItem{val: v, prio: o.Arena.NextPrio()}
		var last *Node
		for len(stack) > 0 && stack[len(stack)-1].prio < it.prio {
			top := &stack[len(stack)-1]
			last = o.make(top.val, top.l, last, top.prio)
			stack = stack[:len(stack)-1]
		}
		it.l = last
		stack = append(stack, it)
	}
	var last *Node
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		last = o.make(top.val, top.l, last, top.prio)
		stack = stack[:len(stack)-1]
	}
	return last
}

// drop hands back a tree the caller owns outright and will not read again.
// In place its nodes go on the free list; in the persistent mode, where
// other versions may share them, drop does nothing. It charges no
// allocation: each node is dropped at most once, so the walk is paid for by
// the node's creation.
func (o *Ops) drop(t *Node) {
	if !o.P.InPlace || t == nil {
		return
	}
	o.drop(t.L)
	o.drop(t.R)
	t.L, t.R = o.P.free, nil
	o.P.free = t
}

// lastPiece returns the final piece of a non-empty subtree.
func lastPiece(t *Node) envelope.Piece {
	for t.R != nil {
		t = t.R
	}
	return t.Val
}

// forEach visits the pieces of a subtree in order.
func forEach(t *Node, fn func(envelope.Piece)) {
	for t != nil {
		forEach(t.L, fn)
		fn(t.Val)
		t = t.R
	}
}
