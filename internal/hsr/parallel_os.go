package hsr

import (
	"strconv"
	"sync"

	"terrainhsr/internal/cg"
	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/metrics"
	"terrainhsr/internal/parallel"
	"terrainhsr/internal/pct"
	"terrainhsr/internal/pram"
	"terrainhsr/internal/profiletree"
)

// OSOptions configures the output-sensitive parallel algorithm.
type OSOptions struct {
	// Workers is the goroutine count (0 = all CPUs).
	Workers int
	// WithHulls enables the exact hull-augmented ACG pruning of the paper
	// (Lemmas 3.3-3.6). Disabled, pruning uses O(1) z-summaries: same
	// results, cheaper constants, weaker worst-case query bounds (ablation
	// A2 measures the difference).
	WithHulls bool
}

// ParallelOS runs the paper's output-sensitive parallel hidden-surface
// removal on the prepared order. Phase 1 builds the PCT's intermediate
// profiles (Lemma 3.1). Phase 2 walks the PCT top-down, layer by layer; at
// each internal node the right child's prefix profile is derived from the
// parent's by querying the left child's intermediate profile against it
// (Chazelle-Guibas style crossing queries, Lemma 3.6) and splicing in only
// the visible runs — every discovered crossing and every spliced breakpoint
// is a vertex of the final image, which is what bounds the work by
// O((n + k) polylog n) (Theorem 3.1). Prefix profiles are persistent trees,
// so the profiles of a layer share all unchanged structure (the paper's
// persistent ACG, Figure 3). Each worker builds them in Ops drawn from the
// package's tree-arena pool.
func (prep *Prepared) ParallelOS(opt OSOptions) (*Result, error) {
	res := &Result{N: prep.t.NumEdges(), Acct: &pram.Accounting{}}

	tree := pct.New(prep.segs, prep.ord.EdgeOrder)
	res.Phase1 = tree.BuildPhase1(opt.Workers, res.Acct)
	for _, st := range res.Phase1 {
		res.Counters.MergeSteps += st.MergeSteps
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	// Per-worker arenas and ops: nodes are immutable after creation, so
	// trees built by one worker may be read by any other in later layers.
	// No tree outlives this solve: pieces are copied into the result, so
	// the slabs may be rewound by the next acquire.
	ops := pool.acquire(workers, opt.WithHulls)
	defer pool.release(ops)
	for _, o := range ops {
		o.Edges = prep.segs
	}
	perWorker := make([]metrics.Counters, workers)

	sep := tree.Sep
	n := sep.N
	vis := make([]pct.LeafVisibility, n)
	prefix := make([]profiletree.Tree, len(sep.Lo))
	p2stats := make([]pct.Phase2Stats, sep.Height+1)
	var statsMu sync.Mutex

	for d := 0; d <= sep.Height; d++ {
		nodes := sep.NodesAtDepth(d)
		if len(nodes) == 0 {
			continue
		}
		rec := res.Acct.NewPhase(phase2Name(d))
		layer := &p2stats[d]
		layer.Depth = d
		parallel.ForDynamic(workers, len(nodes), 4, func(w, i int) {
			o := ops[w]
			ctr := &perWorker[w]
			node := nodes[i]
			// Treap priorities are a function of the PCT node, not of the
			// worker that happens to process it: dynamic scheduling and
			// recycled pool arenas then cannot change the built trees, so
			// the solve's output bytes are identical for any worker count
			// and any pool history (the identity the fleet tests assert).
			o.Arena.Reseed(0x5eed ^ (uint64(node)+1)*0x9e3779b97f4a7c15)
			P := prefix[node]
			var taskCost int64
			var layerMerge, layerCross, layerHeld, layerAlloc int64
			layerHeld = int64(P.Size())
			// PRAM task granularity follows the paper: each segment's
			// crossing query is an independent task ("for each segment s
			// of sigma_ij we compute the intersection of s with P_i"), and
			// the splice work is spread over its runs. The phase's critical
			// path is therefore the largest single query/splice unit, not a
			// whole node.
			var nTasks int
			var maxTaskCost int64
			if sep.IsLeaf(node) {
				pos := int(sep.Lo[node])
				lv := clipLeafOS(o, P, tree, pos, ctr, &taskCost)
				vis[pos] = lv
				layerCross += int64(lv.Crossings)
				nTasks, maxTaskCost = 1, taskCost+1
			} else {
				l, r := 2*node, 2*node+1
				prefix[l] = P
				allocBefore := o.Arena.Allocs
				runs := o.Scratch.Runs[:0]
				for _, pc := range tree.Inter[l] {
					rels, st := cg.QueryRelations(o, P, pc.Seg(), pc.Edge)
					ctr.QuerySteps += st.Steps
					ctr.HullOps += st.HullQueries
					ctr.Crossings += st.Crossings
					layerCross += st.Crossings
					qCost := st.Steps + st.HullQueries
					taskCost += qCost
					nTasks++
					if qCost+1 > maxTaskCost {
						maxTaskCost = qCost + 1
					}
					runs = cg.VisibleRuns(o, runs, rels, pc.Seg(), pc.Edge)
				}
				o.Scratch.Runs = runs
				newT := o.Splice(P, runs)
				prefix[r] = newT
				delta := o.Arena.Allocs - allocBefore
				ctr.TreeOps += delta
				layerAlloc = delta
				layerMerge += int64(len(runs))
				taskCost += delta
				if len(runs) > 0 {
					perRun := delta/int64(len(runs)) + 1
					nTasks += len(runs)
					if perRun > maxTaskCost {
						maxTaskCost = perRun
					}
				}
				if nTasks == 0 {
					nTasks, maxTaskCost = 1, 1
				}
			}
			statsMu.Lock()
			layer.Nodes++
			layer.MergeSteps += layerMerge
			layer.Crossings += layerCross
			layer.PrefixPiecesHeld += layerHeld
			layer.PrefixPiecesAllocated += layerAlloc
			statsMu.Unlock()
			rec.TaskBatch(nTasks, maxTaskCost, taskCost+1)
		})
		rec.Close()
		// Release the parents' tree headers (subtrees stay shared).
		for _, node := range nodes {
			if !sep.IsLeaf(node) {
				prefix[node] = profiletree.Tree{}
			}
		}
	}

	for w := range ops {
		res.Counters.TreeAllocs += ops[w].Arena.Allocs
		res.Counters.Add(perWorker[w])
	}
	res.Phase2 = p2stats
	for _, st := range p2stats {
		res.Crossings += st.Crossings
	}
	for _, lv := range vis {
		res.Counters.Spans += int64(len(lv.Spans))
		for _, sp := range lv.Spans {
			res.Pieces = append(res.Pieces, VisiblePiece{Edge: prep.ord.EdgeOrder[lv.Pos], Span: sp})
		}
	}
	sortPieces(res.Pieces)
	return res, nil
}

func phase2Name(d int) string {
	return "phase2os/layer-" + strconv.Itoa(d)
}

// clipLeafOS computes a leaf's visible spans against its persistent prefix
// profile.
func clipLeafOS(o *profiletree.Ops, P profiletree.Tree, tree *pct.Tree, pos int, ctr *metrics.Counters, taskCost *int64) pct.LeafVisibility {
	lv := pct.LeafVisibility{Pos: pos}
	s := tree.Segs[pos].Canon()
	if s.IsVerticalImage() {
		x := s.A.X
		zLo, zHi := s.A.Z, s.B.Z
		z, covered := o.Eval(P, x)
		ctr.QuerySteps++
		*taskCost++
		switch {
		case !covered:
			lv.Spans = []envelope.Span{{X1: x, Z1: zLo, X2: x, Z2: zHi}}
		case zHi > z+geom.Eps:
			lv.Spans = []envelope.Span{{X1: x, Z1: geom.Max(zLo, z), X2: x, Z2: zHi}}
			if zLo < z {
				lv.Crossings = 1
			}
		}
		return lv
	}
	rels, st := cg.QueryRelations(o, P, s, int32(pos))
	ctr.QuerySteps += st.Steps
	ctr.HullOps += st.HullQueries
	ctr.Crossings += st.Crossings
	*taskCost += st.Steps + st.HullQueries
	lv.Spans = cg.VisibleSpans(rels, s)
	lv.Crossings = int(st.Crossings)
	return lv
}
