package pct

import (
	"sync"
	"sync/atomic"

	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/order"
	"terrainhsr/internal/parallel"
	"terrainhsr/internal/pram"
)

// Tree is the Profile Computation Tree.
type Tree struct {
	Sep *order.SeparatorTree
	// Segs[i] is the image projection of the i-th edge in depth order,
	// canonical (Canon). It is the edge table of every profile the tree
	// builds: piece Edge ids are depth positions.
	Segs envelope.Edges
	// EdgeIDs[i] is the terrain edge index of position i.
	EdgeIDs []int32
	// Inter[node] is the phase-1 intermediate profile of the node.
	Inter []envelope.Profile
}

// New prepares the tree skeleton for the given ordered segments.
func New(segs []geom.Seg2, edgeIDs []int32) *Tree {
	sep := order.NewSeparatorTree(len(segs))
	var inter []envelope.Profile
	if len(segs) > 0 {
		inter = make([]envelope.Profile, len(sep.Lo))
	}
	return &Tree{Sep: sep, Segs: segs, EdgeIDs: edgeIDs, Inter: inter}
}

// Phase1Stats summarizes one bottom-up layer of envelope merging.
type Phase1Stats struct {
	Depth      int
	Nodes      int
	MergeSteps int64
	Crossings  int64
	// ProfilePieces is the total size of the profiles produced at this
	// depth (the Figure 1 "segments per layer" quantity).
	ProfilePieces int64
}

// BuildPhase1 computes all intermediate profiles with the given worker
// count, recording one PRAM phase per tree layer in acct (which may be nil).
// It returns per-layer statistics, deepest layer first.
func (t *Tree) BuildPhase1(workers int, acct *pram.Accounting) []Phase1Stats {
	if t.Sep.N == 0 {
		return nil
	}
	var stats []Phase1Stats
	for d := t.Sep.Height; d >= 0; d-- {
		nodes := t.Sep.NodesAtDepth(d)
		if len(nodes) == 0 {
			continue
		}
		st := Phase1Stats{Depth: d, Nodes: len(nodes)}
		var rec *pram.PhaseRecorder
		if acct != nil {
			rec = acct.NewPhase(phaseName("phase1/layer", d))
		}
		var maxTask, total int64
		parallel.ForDynamic(workers, len(nodes), 8, func(_, i int) {
			node := nodes[i]
			var cost int64
			if t.Sep.IsLeaf(node) {
				pos := int(t.Sep.Lo[node])
				t.Inter[node] = envelope.FromSegment(t.Segs[pos], int32(pos))
				cost = 1
			} else {
				// Big merges near the root run chunk-parallel (the inner
				// loop of Lemma 3.1); chunking is deterministic, so the
				// result is identical for any worker count.
				merged, ms := t.Segs.MergeParallelStats(t.Inter[2*node], t.Inter[2*node+1], chunkWorkers(workers, len(nodes)))
				t.Inter[node] = merged
				cost = int64(ms.Steps) + 1
				if ms.MaxChunk > 0 {
					// The critical path of a chunked merge is its largest
					// chunk, not the whole sweep.
					cost = int64(ms.MaxChunk) + 1
				}
				atomic.AddInt64(&st.MergeSteps, int64(ms.Steps))
				atomic.AddInt64(&st.Crossings, int64(ms.Crossings))
			}
			atomic.AddInt64(&st.ProfilePieces, int64(len(t.Inter[node])))
			atomic.AddInt64(&total, cost)
			for {
				old := atomic.LoadInt64(&maxTask)
				if cost <= old || atomic.CompareAndSwapInt64(&maxTask, old, cost) {
					break
				}
			}
		})
		if rec != nil {
			rec.TaskBatch(len(nodes), maxTask, total)
			rec.Close()
		}
		stats = append(stats, st)
	}
	return stats
}

// chunkWorkers divides the worker budget among the live nodes of a layer:
// near the root few huge merges get many workers each, near the leaves the
// many small merges get one each.
func chunkWorkers(workers, nodes int) int {
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	w := workers / nodes
	if w < 1 {
		w = 1
	}
	return w
}

func phaseName(prefix string, d int) string {
	// Avoid fmt in the hot path; layer counts are tiny so this is cosmetic.
	const digits = "0123456789"
	if d < 10 {
		return prefix + "-" + digits[d:d+1]
	}
	return prefix + "-" + digits[d/10:d/10+1] + digits[d%10:d%10+1]
}

// Root returns the root's intermediate profile: the upper envelope of the
// whole scene (the terrain's silhouette).
func (t *Tree) Root() envelope.Profile {
	if t.Sep.N == 0 {
		return nil
	}
	return t.Inter[1]
}

// LeafVisibility is the phase-2 result for one edge.
type LeafVisibility struct {
	// Pos is the edge's position in depth order.
	Pos int
	// Spans are the visible portions (for a vertical-image edge, a single
	// span with X1 == X2 and the visible z-range).
	Spans []envelope.Span
	// Crossings is the number of crossings between the edge and its prefix
	// profile discovered at the leaf.
	Crossings int
}

// Phase2Stats summarizes the per-layer behaviour of phase 2 for the
// experiments (Figure 1/FG1 sharing and T-series work measurements).
type Phase2Stats struct {
	Depth int
	// Nodes is the number of tree nodes processed at this depth.
	Nodes int64
	// MergeSteps and Crossings are the merge work performed at this depth.
	MergeSteps int64
	Crossings  int64
	// PrefixPiecesHeld is the summed size of the inherited profiles of all
	// nodes at this depth (what a naive per-node copy would store).
	PrefixPiecesHeld int64
	// PrefixPiecesAllocated is the summed size of the freshly built
	// profiles (right-child merges) at this depth; the ratio
	// Held/Allocated is the sharing factor persistence exploits.
	PrefixPiecesAllocated int64
}

// Phase2Simple computes every edge's visible spans by the copying
// prefix-merge strategy described in the package comment. The recursion is
// depth-first with bounded goroutine fan-out so that at most
// O(workers + log n) prefix profiles are alive at once.
func (t *Tree) Phase2Simple(workers int, acct *pram.Accounting) ([]LeafVisibility, []Phase2Stats) {
	n := t.Sep.N
	if n == 0 {
		return nil, nil
	}
	vis := make([]LeafVisibility, n)
	depthStats := make([]Phase2Stats, t.Sep.Height+1)
	for d := range depthStats {
		depthStats[d].Depth = d
	}
	var recs []*pram.PhaseRecorder
	if acct != nil {
		recs = make([]*pram.PhaseRecorder, t.Sep.Height+1)
		for d := range recs {
			recs[d] = acct.NewPhase(phaseName("phase2/layer", d))
		}
	}

	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	sem := make(chan struct{}, maxInt(workers-1, 0))
	var wg sync.WaitGroup

	var down func(node, depth int, prefix envelope.Profile, fresh bool)
	down = func(node, depth int, prefix envelope.Profile, fresh bool) {
		st := &depthStats[depth]
		atomic.AddInt64(&st.PrefixPiecesHeld, int64(len(prefix)))
		if fresh {
			atomic.AddInt64(&st.PrefixPiecesAllocated, int64(len(prefix)))
		}
		atomic.AddInt64(&st.Nodes, 1)
		if t.Sep.IsLeaf(node) {
			pos := int(t.Sep.Lo[node])
			lv := clipLeaf(t.Segs, pos, prefix)
			lv.Pos = pos
			vis[pos] = lv
			atomic.AddInt64(&st.Crossings, int64(lv.Crossings))
			if recs != nil {
				recs[depth].Task(int64(len(prefix)) + 1)
			}
			return
		}
		l, r := 2*node, 2*node+1
		merged, ms := t.Segs.MergeStats(prefix, t.Inter[l])
		atomic.AddInt64(&st.MergeSteps, int64(ms.Steps))
		atomic.AddInt64(&st.Crossings, int64(ms.Crossings))
		if recs != nil {
			recs[depth].Task(int64(ms.Steps) + 1)
		}
		// Left inherits the parent's profile (shared); right gets the copy.
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				down(l, depth+1, prefix, false)
			}()
		default:
			down(l, depth+1, prefix, false)
		}
		down(r, depth+1, merged, true)
	}
	down(1, 0, nil, false)
	wg.Wait()
	for _, rec := range recs {
		rec.Close()
	}
	return vis, depthStats
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// clipLeaf computes the visible spans of one segment against its prefix
// profile, handling segments that project vertically in the image plane
// (edges parallel to the viewing direction) as zero-width spans.
func clipLeaf(segs envelope.Edges, pos int, prefix envelope.Profile) LeafVisibility {
	var lv LeafVisibility
	s := segs[pos].Canon()
	if s.IsVerticalImage() {
		x := s.A.X
		zLo, zHi := s.A.Z, s.B.Z // Canon orders by Z for vertical segments
		z, covered := prefix.Eval(x, segs)
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
	res := segs.ClipAbove(s, int32(pos), prefix)
	lv.Spans = res.Spans
	lv.Crossings = res.Crossings
	return lv
}
