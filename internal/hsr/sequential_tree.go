package hsr

import (
	"sync"

	"terrainhsr/internal/cg"
	"terrainhsr/internal/envelope"
	"terrainhsr/internal/metrics"
	"terrainhsr/internal/pram"
	"terrainhsr/internal/profiletree"
)

// pieceBufs recycles SequentialTree's piece buffers: a sweep appends into
// one and returns an exact-size copy, so its pieces are allocated once
// rather than grown by doubling, and no Result aliases a buffer.
var pieceBufs = sync.Pool{New: func() any { return new([]VisiblePiece) }}

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
func (prep *Prepared) SequentialTree(withHulls bool) (*Result, error) {
	res := &Result{N: prep.t.NumEdges(), Acct: &pram.Accounting{}}
	ops := pool.acquire(1, withHulls)
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
	buf := pieceBufs.Get().(*[]VisiblePiece)
	defer pieceBufs.Put(buf)
	pieces := (*buf)[:0]
	var profile profiletree.Tree
	var ctr metrics.Counters
	var maxTask, total int64

	for pos, seg := range prep.segs {
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
	ctr.Spans = int64(len(pieces))
	res.Counters = ctr
	res.Counters.TreeAllocs = o.Arena.Allocs
	res.Acct.AddPhase("sequential-tree", len(prep.segs), maxTask, total)
	sortPieces(pieces)
	if len(pieces) > 0 {
		res.Pieces = append(make([]VisiblePiece, 0, len(pieces)), pieces...)
	}
	*buf = pieces[:0] // keep the grown capacity for the next sweep
	return res, nil
}
