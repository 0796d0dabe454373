package envelope

import (
	"math"
	"sort"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/parallel"
)

// Parallel envelope merging — the inner loop of Lemma 3.1. A single large
// merge is the depth bottleneck of phase 1 (the root node merges two
// profiles of ~n/2 pieces); the paper's bound needs the merge itself to be
// parallel. The x-range of the union is split at deterministic piece-count
// quantiles into chunks, each chunk is merged independently (the inputs
// restricted to a chunk are still profiles), and the results are
// concatenated with seam coalescing.
//
// Chunk boundaries depend only on the inputs — never on the worker count —
// so the output is bit-identical regardless of parallelism.

// mergeChunkSize is the piece count per chunk: small enough to expose
// parallelism at the PCT root, large enough to amortize the chunking.
const mergeChunkSize = 2048

// MergeParallel merges with worker-parallel chunking. workers <= 1 or
// small inputs fall back to the sequential sweep.
func (e Edges) MergeParallel(a, b Profile, workers int) Profile {
	p, _ := e.MergeParallelStats(a, b, workers)
	return p
}

// MergeParallelStats is MergeParallel with sweep statistics. The Stats
// MaxChunk field reports the largest single-chunk step count: the merge's
// critical path under unbounded processors.
func (e Edges) MergeParallelStats(a, b Profile, workers int) (Profile, Stats) {
	total := len(a) + len(b)
	if total <= 2*mergeChunkSize {
		return e.MergeStats(a, b)
	}
	cuts := mergeCuts(a, b)
	nChunks := len(cuts) + 1
	outs := make([]Profile, nChunks)
	stats := make([]Stats, nChunks)
	parallel.ForDynamic(workers, nChunks, 1, func(_, i int) {
		lo, hi := chunkBounds(cuts, i)
		outs[i], stats[i] = e.MergeStats(e.portion(a, lo, hi), e.portion(b, lo, hi))
	})
	// Concatenate with seam coalescing (a piece cut at a chunk boundary is
	// reunited by appendPiece's collinearity check).
	var st Stats
	out := make(Profile, 0, total)
	for i, chunk := range outs {
		st.Crossings += stats[i].Crossings
		st.Steps += stats[i].Steps
		if stats[i].Steps > st.MaxChunk {
			st.MaxChunk = stats[i].Steps
		}
		for _, pc := range chunk {
			out = appendPiece(out, pc)
		}
	}
	return out, st
}

// mergeCuts returns the interior cut coordinates: deterministic quantiles
// of the union's piece-start sequence.
func mergeCuts(a, b Profile) []float64 {
	starts := make([]float64, 0, len(a)+len(b))
	for _, pc := range a {
		starts = append(starts, pc.X1)
	}
	for _, pc := range b {
		starts = append(starts, pc.X1)
	}
	sort.Float64s(starts)
	var cuts []float64
	for i := mergeChunkSize; i < len(starts); i += mergeChunkSize {
		x := starts[i]
		if len(cuts) > 0 && x <= cuts[len(cuts)-1]+geom.Eps {
			continue
		}
		cuts = append(cuts, x)
	}
	return cuts
}

func chunkBounds(cuts []float64, i int) (lo, hi float64) {
	lo, hi = math.Inf(-1), math.Inf(1)
	if i > 0 {
		lo = cuts[i-1]
	}
	if i < len(cuts) {
		hi = cuts[i]
	}
	return lo, hi
}

// portion restricts a profile to [lo, hi), splitting boundary pieces.
func (e Edges) portion(p Profile, lo, hi float64) Profile {
	if len(p) == 0 {
		return nil
	}
	// First piece with X2 > lo.
	i := sort.Search(len(p), func(i int) bool { return p[i].X2 > lo })
	// First piece with X1 >= hi.
	j := sort.Search(len(p), func(i int) bool { return p[i].X1 >= hi })
	if i >= j {
		return nil
	}
	out := make(Profile, j-i)
	copy(out, p[i:j])
	if first := &out[0]; first.X1 < lo {
		first.Z1 = e.ZAt(*first, lo)
		first.X1 = lo
	}
	if last := &out[len(out)-1]; last.X2 > hi {
		last.Z2 = e.ZAt(*last, hi)
		last.X2 = hi
	}
	// Drop slivers created by the clipping.
	if out[0].Width() <= geom.Eps {
		out = out[1:]
	}
	if n := len(out); n > 0 && out[n-1].Width() <= geom.Eps {
		out = out[:n-1]
	}
	return out
}
