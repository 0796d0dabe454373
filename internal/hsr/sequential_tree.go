package hsr

import (
	"slices"

	"terrainhsr/internal/cg"
	"terrainhsr/internal/envelope"
	"terrainhsr/internal/freelist"
	"terrainhsr/internal/metrics"
	"terrainhsr/internal/pram"
	"terrainhsr/internal/profiletree"
)

// sweepBuf is SequentialTree's working memory: the pieces in the order
// the sweep finds them, depth position by depth position, and where each
// position's run starts.
type sweepBuf struct {
	pieces []VisiblePiece
	// starts[pos] is the index in pieces of depth position pos's first
	// piece; starts[len(segs)] is the piece count.
	starts []int32
}

// sweepBufs recycles the sweep buffers of preparations that have no arena,
// so the sweep grows no slice by doubling and its one allocation is the
// returned exact-size Pieces.
var sweepBufs freelist.List[sweepBuf]

// SequentialTree runs the Reif-Sen sequential algorithm on the prepared
// order with the efficient structures of their paper (and of this one): the
// evolving profile lives in the balanced search structure with crossing
// queries, so each edge costs O((1 + k_e) polylog) instead of O(|profile|).
// This is the O((n + k) log^2 n)-style sequential bound the parallel
// algorithm is measured against in experiment TH5.
//
// Options mirror ParallelOS: summary pruning by default, the exact
// hull-augmented ACG with withHulls. The tree is built in one Ops drawn
// from the package's tree-arena pool.
//
// The pieces come out in canonical order without a sort: the sweep visits
// the edges in depth order, and one edge's pieces are one run that already
// ascends strictly in X1 (they are the disjoint, positive-width visible
// relations of one segment, or the single piece of a vertical one), so
// walking the edges by id through the depth positions (order.Result's
// PosOf) lays the runs out in (Edge, X1, Z1) order. On a preparation from
// Prepare, the Result and its exact-size Pieces are the caller's. On one
// from a PrepareArena, the Result, its Pieces and its accounting live in
// the arena and are valid only as long as the Prepared is: copy what is
// kept before the arena prepares again or is released.
func (prep *Prepared) SequentialTree(withHulls bool) (*Result, error) {
	a := prep.arena
	var res *Result
	if a != nil {
		a.acct.Reset()
		a.res = Result{N: prep.t.NumEdges(), Acct: &a.acct}
		res = &a.res
	} else {
		res = &Result{N: prep.t.NumEdges(), Acct: &pram.Accounting{}}
	}
	var one [1]*profiletree.Ops
	ops := pool.acquire(one[:0], 1, withHulls)
	defer pool.release(ops)
	o := ops[0]
	// A fixed priority stream: the solve produces the same bytes whatever
	// arena history the pool hands over.
	o.Arena.Reseed(0xfeed)
	o.Edges = prep.segs
	// The sweep keeps only the current profile, so its tree runs in place:
	// splices rewrite the profile's nodes and recycle the covered ones, and
	// the solve holds about as many nodes as the largest profile has pieces.
	// Shapes, aggregates and counters are those of path copying (see package
	// profiletree). The pool's Reset returns the Ops to the persistent mode.
	o.P.InPlace = true
	var buf *sweepBuf
	if a != nil {
		buf = &a.sweep
	} else {
		buf = sweepBufs.Get()
		defer sweepBufs.Put(buf)
	}
	pieces := buf.pieces[:0]
	starts := slices.Grow(buf.starts[:0], len(prep.segs)+1)[:len(prep.segs)+1]
	var profile profiletree.Tree
	var ctr metrics.Counters
	var maxTask, total int64

	for pos, seg := range prep.segs {
		starts[pos] = int32(len(pieces))
		var cost int64
		s := seg.Canon()
		if s.IsVerticalImage() {
			x := s.A.X
			zLo, zHi := s.A.Z, s.B.Z
			z, covered := o.Eval(profile, x)
			ctr.QuerySteps++
			cost++
			switch {
			case !covered:
				pieces = append(pieces, VisiblePiece{Edge: prep.ord.EdgeOrder[pos],
					Span: envelope.Span{X1: x, Z1: zLo, X2: x, Z2: zHi}})
			case zHi > z+1e-9:
				z1 := zLo
				if z > z1 {
					z1 = z
					res.Crossings++
					ctr.Crossings++
				}
				pieces = append(pieces, VisiblePiece{Edge: prep.ord.EdgeOrder[pos],
					Span: envelope.Span{X1: x, Z1: z1, X2: x, Z2: zHi}})
			}
		} else {
			rels, st := cg.QueryRelations(o, profile, s, int32(pos))
			ctr.QuerySteps += st.Steps
			ctr.HullOps += st.HullQueries
			ctr.Crossings += st.Crossings
			res.Crossings += st.Crossings
			cost += st.Steps + st.HullQueries
			for _, r := range rels {
				if r.Above {
					pieces = append(pieces, VisiblePiece{Edge: prep.ord.EdgeOrder[pos], Span: cg.VisibleSpan(r, s)})
				}
			}
			runs := cg.VisibleRuns(o, o.Scratch.Runs[:0], rels, s, int32(pos))
			o.Scratch.Runs = runs
			allocBefore := o.Arena.Allocs
			profile = o.Splice(profile, runs)
			delta := o.Arena.Allocs - allocBefore
			ctr.TreeOps += delta
			cost += delta
		}
		total += cost
		if cost > maxTask {
			maxTask = cost
		}
	}
	k := len(pieces)
	starts[len(prep.segs)] = int32(k)
	ctr.Spans = int64(k)
	res.Counters = ctr
	res.Counters.TreeAllocs = o.Arena.Allocs
	res.Acct.AddPhase("sequential-tree", len(prep.segs), maxTask, total)
	if k > 0 {
		var out []VisiblePiece
		if a != nil {
			out = slices.Grow(a.out[:0], k)
			a.out = out
		} else {
			out = make([]VisiblePiece, 0, k)
		}
		for _, pos := range prep.ord.PosOf {
			out = append(out, pieces[starts[pos]:starts[pos+1]]...)
		}
		res.Pieces = out[:k:k]
	}
	// Keep the grown capacity for the next sweep.
	buf.pieces, buf.starts = pieces[:0], starts
	return res, nil
}
