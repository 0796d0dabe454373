package profiletree

import (
	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/hull"
	"terrainhsr/internal/persist"
)

// Agg is the subtree summary.
type Agg struct {
	// X1, X2 is the coverage extent: first piece start to last piece end.
	X1, X2 float64
	// ZMin, ZMax bound the subtree's piece endpoints.
	ZMin, ZMax float64
	// HasGap reports an uncovered interval strictly inside [X1, X2].
	HasGap bool
	// Hulls holds the subtree's convex chains; it is nil when the tree
	// operates in summary-only mode, which keeps the default node small.
	*Hulls
}

// Hulls is the pair of convex chains over all piece endpoints of a
// subtree, the exact pruning structure of the paper's ACG.
type Hulls struct {
	Lower, Upper hull.Chain
}

// Tree is a (possibly empty) profile. Trees are immutable and operations
// return new trees sharing structure, unless the Ops runs in place
// (P.InPlace): then each operation consumes the trees it is given.
type Tree struct {
	Root *Node
}

// Size returns the number of pieces.
func (t Tree) Size() int { return size(t.Root) }

// Ops bundles the arena-bound operations and a worker's reusable working
// memory. One Ops per worker goroutine.
type Ops struct {
	// P is the node store; P.InPlace selects the in-place mode.
	P         Nodes
	H         *hull.Ops
	WithHulls bool
	Arena     *persist.Arena
	// Edges is the table of original segments behind the trees' pieces,
	// indexed by Piece.Edge: every height and crossing the tree operations
	// and package cg's queries compute is taken on it (see
	// envelope.Edges). A solve sets it before building trees.
	Edges envelope.Edges
	// Scratch is the worker's crossing-query memory; see Scratch.
	Scratch Scratch

	hulls  [][]Hulls // chain-pair slab chunks, carved by newHulls
	nHulls int       // chain pairs handed out since the last Reset
}

// Relation is one maximal x-interval of a query segment with a constant
// relation to the profile (package cg computes them).
type Relation struct {
	X1, X2 float64
	// Above is true where the segment is strictly above the profile or the
	// profile is absent (a gap).
	Above bool
}

// Scratch is a worker's reusable crossing-query memory. It lives in the
// worker's Ops, so whatever recycles the Ops (package hsr's tree-arena
// pool) keeps its capacity too, and steady-state queries allocate nothing.
// Package cg owns the contents and documents how long the results it hands
// out stay valid. Like the node slabs, the retained capacity is bounded by
// the largest query (and run batch) the Ops has served.
type Scratch struct {
	// Raw and Rels hold a query's unstitched and stitched relations.
	Raw, Rels []Relation
	// Pieces backs the pieces of the runs in the current run batch.
	Pieces []envelope.Piece
	// Runs is the caller's reusable run batch.
	Runs []Run
}

// NewOps creates profile-tree operations allocating from arena. withHulls
// selects the exact hull-augmented pruning of the paper's ACG.
func NewOps(arena *persist.Arena, withHulls bool) *Ops {
	return &Ops{Arena: arena, WithHulls: withHulls, H: hull.NewOps(arena)}
}

// Reset rewinds the ops for reuse by another solve: the arena restarts its
// priority stream and counters, and the node slabs (profile and hull) and
// the chain-pair slab are carved again from the start. Every tree previously
// built through o is invalidated; callers must drop all references to such
// trees first. This is what lets a worker pool amortize tree allocation
// across a batch of solves. The profile tree returns to the persistent
// mode. The query Scratch keeps its capacity: each query overwrites it
// anyway.
func (o *Ops) Reset() {
	o.Arena.Reset()
	o.P.reset()
	o.H.P.Reset()
	o.nHulls = 0
}

// hullChunk is the chunk size of the chain-pair slab.
const hullChunk = 1024

// newHulls carves a chain pair out of o's slab: hull mode pays one
// allocation per hullChunk nodes instead of one per node, and Reset
// recycles the pairs with the node slabs.
func (o *Ops) newHulls(lower, upper hull.Chain) *Hulls {
	c, i := o.nHulls/hullChunk, o.nHulls%hullChunk
	if c == len(o.hulls) {
		o.hulls = append(o.hulls, make([]Hulls, hullChunk))
	}
	o.nHulls++
	h := &o.hulls[c][i]
	*h = Hulls{Lower: lower, Upper: upper}
	return h
}

// FromProfile builds a tree from a slice profile in O(n) tree nodes.
func (o *Ops) FromProfile(p envelope.Profile) Tree {
	return Tree{Root: o.build(p)}
}

// ToProfile materializes the tree as a slice profile.
func ToProfile(t Tree) envelope.Profile {
	out := make(envelope.Profile, 0, t.Size())
	forEach(t.Root, func(pc envelope.Piece) { out = append(out, pc) })
	return out
}

// Eval returns the profile value at x, mirroring envelope.Profile.Eval
// (right piece wins at shared breakpoints), on the pieces' edges in o.Edges.
func (o *Ops) Eval(t Tree, x float64) (float64, bool) {
	n := t.Root
	var best envelope.Piece
	found := false
	for n != nil {
		if n.Val.X1 <= x {
			best, found = n.Val, true
			n = n.R
		} else {
			n = n.L
		}
	}
	if !found || x > best.X2 {
		return 0, false
	}
	return o.Edges.ZAt(best, x), true
}

// SplitAtX splits the profile at coordinate x: the left tree covers
// (-inf, x), the right [x, +inf). A piece straddling x is divided; slivers
// of width <= Eps are dropped. In place, the straddling piece's node is
// recycled for its halves.
func (o *Ops) SplitAtX(t Tree, x float64) (Tree, Tree) {
	l, r := o.splitBefore(t.Root, x)
	// The last piece of l may extend past x.
	if l != nil {
		last := lastPiece(l)
		if last.X2 > x+geom.Eps {
			lInit, straddling := o.splitRank(l, size(l)-1)
			o.drop(straddling)
			zAt := o.Edges.ZAt(last, x)
			leftPart := envelope.Piece{X1: last.X1, Z1: last.Z1, X2: x, Z2: zAt, Edge: last.Edge}
			rightPart := envelope.Piece{X1: x, Z1: zAt, X2: last.X2, Z2: last.Z2, Edge: last.Edge}
			if leftPart.Width() > geom.Eps {
				lInit = o.join(lInit, o.make(leftPart, nil, nil, o.Arena.NextPrio()))
			}
			l = lInit
			if rightPart.Width() > geom.Eps {
				r = o.join(o.make(rightPart, nil, nil, o.Arena.NextPrio()), r)
			}
		}
	}
	return Tree{Root: l}, Tree{Root: r}
}

// Join concatenates two profiles (a entirely left of b).
func (o *Ops) Join(a, b Tree) Tree {
	return Tree{Root: o.join(a.Root, b.Root)}
}

// Run is a maximal interval where new material rises above the profile,
// together with the pieces that cover it.
type Run struct {
	X1, X2 float64
	Pieces []envelope.Piece
}

// Splice replaces the profile by the pointwise maximum with the given runs
// (each run's pieces lie strictly above the current profile on its
// interval, as established by the caller's crossing queries). Runs must be
// sorted by X1 and pairwise disjoint. In place, the covered middle of each
// run is dropped for later nodes to reuse.
func (o *Ops) Splice(t Tree, runs []Run) Tree {
	if len(runs) == 0 {
		return t
	}
	var acc Tree
	rest := t
	for _, run := range runs {
		left, midRight := o.SplitAtX(rest, run.X1)
		covered, right := o.SplitAtX(midRight, run.X2)
		o.drop(covered.Root)
		acc = o.Join(acc, left)
		if len(run.Pieces) > 0 {
			acc = o.Join(acc, Tree{Root: o.build(run.Pieces)})
		}
		rest = right
	}
	return o.Join(acc, rest)
}

// Validate checks the structural invariants (test helper).
func Validate(t Tree) error {
	return ToProfile(t).Validate()
}
