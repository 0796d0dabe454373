package tile

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/metrics"
	"terrainhsr/internal/obs"
	"terrainhsr/internal/parallel"
	"terrainhsr/internal/terrain"
)

// SolveFunc solves one tile with the given intra-tile worker budget and
// returns its visible scene (in the sub-terrain's local edge numbering).
// prep is the sub-terrain's depth order, prepared in the tile's set-up
// arena: it and its terrain are valid only during the call, and the
// returned Result must not refer to them, and its Pieces belong to the
// caller, which rewrites them in place. The caller supplies the function,
// closing over the algorithm choice and any tree-arena pools; package tile
// stays agnostic of which hidden-surface algorithm runs inside a tile.
type SolveFunc func(prep *hsr.Prepared, workers int) (*hsr.Result, error)

// Options configures a tiled solve.
type Options struct {
	// Workers is the total worker budget shared by concurrent tiles and the
	// solves inside them (0 = all CPUs).
	Workers int
	// NoCull disables the per-tile occlusion cull against the accumulated
	// silhouette envelope. Culling never changes results; the switch exists
	// for tests and measurements.
	NoCull bool
	// Emit, when non-nil, streams the visible scene instead of
	// materializing it: every depth band's clipped pieces are handed to
	// Emit — canonically sorted within the band — as soon as the band
	// completes, and the returned Result carries no Pieces slice (counters
	// and crossings are still filled). Peak memory then holds one band of
	// pieces instead of the whole scene; sorting a collected stream
	// canonically yields exactly the pieces a materializing solve returns.
	// An Emit error aborts the solve.
	Emit func(p hsr.VisiblePiece) error
	// Coherence, when non-nil, activates frame-coherent verify-then-reuse
	// and verdict recording; see the Coherence type.
	Coherence *Coherence
	// Trace, when sampled, receives one span per depth band (tiles
	// solved/culled/reused, band-barrier merge time, page-in wait when
	// paged). A nil Trace — the unsampled case — costs nothing on the
	// solve path. Tracing never influences the solve: results are
	// byte-identical with it on or off.
	Trace *obs.Trace
}

// Stats reports how a tiled solve spent its effort.
type Stats struct {
	// Bands and Tiles describe the partition actually used.
	Bands, Tiles int
	// TilesSolved and TilesCulled split the tiles into those that ran a
	// local solve and those skipped because the accumulated front envelope
	// already covered their entire bounding box.
	TilesSolved, TilesCulled int
	// LocalPieces counts owned visible pieces before clipping against the
	// front envelope; Pieces-of-result minus LocalPieces is the seam cost.
	LocalPieces int
	// EnvelopeSize is the final accumulated silhouette's piece count.
	EnvelopeSize int
	// MergeNS is the total time (ns) spent in band barriers: clipping owned
	// pieces against the front envelope and merging band silhouettes.
	MergeNS int64
	// PageWaitNS is the total time (ns) a paged solve spent blocked on
	// page-ins (zero for resident solves). With concurrent solves sharing
	// one pager the attribution is approximate.
	PageWaitNS int64
	// BytesPaged and PageIns are the bytes and tile files a paged solve
	// read (zero for resident solves; same sharing caveat as PageWaitNS).
	BytesPaged, PageIns int64
}

// tileOutcome is one tile's contribution, in global edge numbering.
type tileOutcome struct {
	pieces    []hsr.VisiblePiece
	counters  metrics.Counters
	crossings int64
	culled    bool
	// reused marks a cull decided by a passed cone check (no extent scan);
	// verifyFailed marks a tile whose cone check ran and failed.
	reused       bool
	verifyFailed bool
}

// Solve computes the visible scene of a grid terrain by solving row×col
// tiles independently and merging front to back. The result is equivalent
// to a monolithic solve of the same terrain (same visible pieces up to
// float tolerance at piece boundaries) while peak memory scales with a
// band of tiles rather than with the whole terrain. Both lattices produce
// the same bytes and, whenever the paged height bound is exact, the same
// tile counts.
//
// Bands are processed front to back. Per band: compute the band's Y table
// (no heights), cull tiles the front envelope covers (their vertices are
// never requested), then solve the surviving tiles concurrently — each
// extracts its sub-terrain (owned cells plus same-band halo, see
// extract.go), runs solve on it, and keeps the visible pieces of the edges
// it owns. The band barrier then clips every kept piece against the
// accumulated silhouette envelope of all earlier bands — occlusion crossing
// band seams — and merges the band's own unclipped silhouette into the
// accumulator for the bands behind it. Finally the band's rows are retired
// from the lattice, which lets a paged source release them.
func Solve(l Lattice, p *Partition, solve SolveFunc, opt Options) (*hsr.Result, Stats, error) {
	var stats Stats
	if err := l.check(p); err != nil {
		return nil, stats, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	tileWorkers := workers
	if tileWorkers > p.NumCols {
		tileWorkers = p.NumCols
	}
	subWorkers := workers / tileWorkers
	if subWorkers < 1 {
		subWorkers = 1
	}

	stats.Bands, stats.Tiles = p.NumBands, p.NumTiles()

	co := opt.Coherence
	if co != nil {
		co.prepare(p.NumTiles())
	}
	bs := bandPool.Get().(*bandState)
	defer bs.release()
	bs.start(opt.Emit, co, p.NumCols)
	solveStart := l.meter()
	bandStart := solveStart
	for b := 0; b < p.NumBands; b++ {
		bsp := beginBand(opt.Trace, &stats)
		r0, r1 := p.BandRows(b)
		if err := bs.tables.fill(l, p.Cols, r0, r1); err != nil {
			return nil, stats, err
		}
		ys, ivs := bs.tables.ys, bs.tables.ivs
		outcomes := resize(bs.outcomes, p.NumCols)
		errs := resize(bs.errs, p.NumCols)
		clear(outcomes)
		clear(errs)
		bs.outcomes, bs.errs = outcomes, errs
		var failed atomic.Bool
		parallel.ForDynamic(tileWorkers, p.NumCols, 1, func(_, c int) {
			if failed.Load() {
				return
			}
			if err := solveTile(l, p, b, c, ys, ivs, bs.front, solve, subWorkers, opt.NoCull, co, &outcomes[c]); err != nil {
				errs[c] = err
				failed.Store(true)
			}
		})
		for c, err := range errs {
			if err != nil {
				return nil, stats, fmt.Errorf("tile: band %d col %d: %w", b, c, err)
			}
		}
		mt0 := time.Now()
		if err := bs.finishBand(b, outcomes, &stats); err != nil {
			return nil, stats, err
		}
		mergeDur := time.Since(mt0)
		stats.MergeNS += mergeDur.Nanoseconds()
		// The band's silhouette is merged; rows in front of r1 can no longer
		// influence anything (row r1 itself is shared with the next band).
		l.retire(r1)
		bandEnd := l.meter()
		bsp.end(b, &stats, mt0, mergeDur, bandEnd.waitNS-bandStart.waitNS, bandEnd.bytes-bandStart.bytes)
		bandStart = bandEnd
	}
	solveEnd := l.meter()
	stats.PageWaitNS = solveEnd.waitNS - solveStart.waitNS
	stats.BytesPaged = solveEnd.bytes - solveStart.bytes
	stats.PageIns = solveEnd.ins - solveStart.ins
	return bs.result(terrain.EdgeCountForGrid(p.Rows, p.Cols), &stats), stats, nil
}

// bandSpan brackets one depth band of a solve for tracing. On an unsampled
// trace every method is free; on a sampled one, end records the band span
// with its tile outcomes plus child spans for the band-barrier merge and
// (when paged) the band's page-in wait.
type bandSpan struct {
	tr        *obs.Trace
	tok       obs.SpanToken
	preSolved int
	preCulled int
	start     time.Time
}

// beginBand opens the band span (a no-op on an unsampled trace).
func beginBand(tr *obs.Trace, stats *Stats) bandSpan {
	bsp := bandSpan{tr: tr}
	if tr.Sampled() {
		bsp.tok = tr.StartSpan(obs.StageBand)
		bsp.preSolved, bsp.preCulled = stats.TilesSolved, stats.TilesCulled
		bsp.start = time.Now()
	}
	return bsp
}

// end closes the band span. mergeStart/mergeDur time the band barrier;
// waitNS and bytesPaged are the band's page-in deltas (zero when resident).
func (bsp bandSpan) end(b int, stats *Stats, mergeStart time.Time, mergeDur time.Duration, waitNS, bytesPaged int64) {
	if !bsp.tr.Sampled() {
		return
	}
	bsp.tr.AddSpan(bsp.tok, obs.StageMerge, mergeStart, mergeDur)
	if waitNS > 0 {
		bsp.tr.AddSpan(bsp.tok, obs.StagePageWait, bsp.start, time.Duration(waitNS),
			obs.AttrInt("bytes", bytesPaged))
	}
	bsp.tr.EndSpanAttrs(bsp.tok,
		obs.AttrInt("band", int64(b)),
		obs.AttrInt("tiles_solved", int64(stats.TilesSolved-bsp.preSolved)),
		obs.AttrInt("tiles_culled", int64(stats.TilesCulled-bsp.preCulled)),
	)
}

// bandState is the working memory of one tiled solve: the cross-band
// accumulator — the front envelope, the clipped output (or per-band
// emission) and the global counters — and every buffer of the band loop.
// Solve takes one from bandPool and puts it back when it returns. Each
// buffer keeps the capacity of the largest band (the output, of the largest
// scene) it has served, so a warm solve allocates only its returned result
// and the kernel's per-tile output. Nothing a solve returns points into a
// bandState: result copies the output out.
type bandState struct {
	// front is the silhouette of all earlier bands. finishBand merges the
	// band silhouette band (built with the scratch env) into back and swaps
	// the two, so front is only rewritten between bands.
	front, back, band envelope.Profile
	env               envelope.BuildScratch
	// segs holds the band's silhouette segments, tables its Y table and
	// cell intervals, outcomes and errs its per-tile results.
	segs     []geom.Seg2
	tables   bandTables
	outcomes []tileOutcome
	errs     []error
	// out accumulates the clipped pieces: the whole scene, or one band
	// when streaming.
	out       []hsr.VisiblePiece
	counters  metrics.Counters
	crossings int64
	emit      func(p hsr.VisiblePiece) error
	co        *Coherence // verdict recording + reuse counters; may be nil
	cols      int        // tile columns per band, for verdict indexing
}

var bandPool = sync.Pool{New: func() any { return new(bandState) }}

// start resets the accumulator for a new solve, keeping the buffers.
func (bs *bandState) start(emit func(hsr.VisiblePiece) error, co *Coherence, cols int) {
	bs.front, bs.out = bs.front[:0], bs.out[:0]
	bs.counters, bs.crossings = metrics.Counters{}, 0
	bs.emit, bs.co, bs.cols = emit, co, cols
}

// release drops the solve's references — the caller's callbacks and the
// tiles' kernel output — and returns bs to bandPool.
func (bs *bandState) release() {
	bs.emit, bs.co = nil, nil
	clear(bs.outcomes)
	clear(bs.errs)
	bandPool.Put(bs)
}

// finishBand is the band barrier: clip each tile's owned pieces against the
// front envelope (sequentially, in column order, for determinism), collect
// the band's own silhouette segments, flush the band when streaming, and
// merge the band silhouette into the accumulated front. With coherence
// active it also classifies every tile — culled, hidden (solved but every
// owned piece clipped away), or visible — and sums the reuse counters, all
// on this single sequential path so no atomics are needed.
func (bs *bandState) finishBand(b int, outcomes []tileOutcome, stats *Stats) error {
	bandSegs := bs.segs[:0]
	for c := range outcomes {
		oc := &outcomes[c]
		if oc.culled {
			stats.TilesCulled++
			bs.recordVerdict(b, c, VerdictCulled, oc)
			continue
		}
		stats.TilesSolved++
		bs.counters.Add(oc.counters)
		bs.crossings += oc.crossings
		stats.LocalPieces += len(oc.pieces)
		before := len(bs.out)
		for _, pc := range oc.pieces {
			n := int64(0)
			bs.out, n = appendClipped(bs.out, pc, bs.front)
			bs.crossings += n
			if pc.Span.X2-pc.Span.X1 > geom.Eps {
				bandSegs = append(bandSegs, geom.Seg2{
					A: geom.Pt2{X: pc.Span.X1, Z: pc.Span.Z1},
					B: geom.Pt2{X: pc.Span.X2, Z: pc.Span.Z2},
				})
			}
		}
		if len(bs.out) == before {
			bs.recordVerdict(b, c, VerdictHidden, oc)
		} else {
			bs.recordVerdict(b, c, VerdictVisible, oc)
		}
	}
	if bs.emit != nil {
		// Streaming: flush the band's clipped pieces in canonical order
		// and reuse the buffer, so at most one band of pieces is live.
		sortVisible(bs.out)
		for _, pc := range bs.out {
			if err := bs.emit(pc); err != nil {
				return err
			}
		}
		bs.out = bs.out[:0]
	}
	if len(bandSegs) > 0 {
		// The unclipped band silhouette: locally hidden parts of the band
		// are below some locally visible piece, so the envelope of the
		// band's local pieces equals the envelope of all its edges; and
		// globally hidden pieces lie below the accumulated front profile,
		// so merging them is harmless. Front is passed first: earlier
		// bands win ties, matching the depth order of a monolithic solve.
		// The front's pieces come from no edge table, so the nil Edges
		// evaluates them on their own endpoints.
		var own envelope.Edges
		bs.band = own.BuildUpperEnvelopeInto(bs.band, bandSegs, envelope.NoEdge, &bs.env)
		bs.back, _ = own.MergeStatsInto(bs.back, bs.front, bs.band)
		bs.front, bs.back = bs.back, bs.front
	}
	bs.segs = bandSegs
	return nil
}

// recordVerdict stores tile (b, c)'s verdict and sums the reuse counters.
func (bs *bandState) recordVerdict(b, c int, v Verdict, oc *tileOutcome) {
	co := bs.co
	if co == nil {
		return
	}
	co.Out[b*bs.cols+c] = v
	switch {
	case oc.reused:
		co.Stats.TilesReused++
	case oc.culled && oc.verifyFailed:
		co.Stats.TilesReverified++
		co.Stats.VerifyFailures++
	case oc.culled:
	default:
		co.Stats.TilesResolved++
		if oc.verifyFailed {
			co.Stats.VerifyFailures++
		}
	}
}

// result finalizes the accumulated scene after the last band. A
// materializing solve returns an exact-size copy of the pooled output (nil
// for an empty scene); a streaming one returns no pieces.
func (bs *bandState) result(numEdges int, stats *Stats) *hsr.Result {
	stats.EnvelopeSize = bs.front.Size()
	var out []hsr.VisiblePiece
	if bs.emit == nil && len(bs.out) > 0 {
		sortVisible(bs.out)
		out = slices.Clone(bs.out)
	}
	return &hsr.Result{
		N:         numEdges,
		Pieces:    out,
		Crossings: bs.crossings,
		Counters:  bs.counters,
	}
}

// sortVisible orders pieces canonically by (Edge, X1, Z1) — the order every
// materialized result uses, and the within-band order of streamed bands.
func sortVisible(ps []hsr.VisiblePiece) {
	slices.SortFunc(ps, hsr.ComparePieces)
}

// solveTile runs one tile of band b: verify-then-reuse (when coherent),
// cull check, sub-terrain extraction, local solve, and translation of the
// owned pieces to global edge ids. ys and ivs are the band's Y table and
// cell intervals. The cull check uses only the Y table and the lattice's
// height bound, and a reusable prior verdict is first tried against the
// tile's frame-invariant world box, so a tile's vertices are requested only
// when it survives both. front is read-only here (it is only rewritten
// between bands, after the band barrier). A solved tile sets up in an arena
// drawn from setupPool for the duration of the call. The outcome is written
// to oc.
func solveTile(l Lattice, p *Partition, b, c int, ys [][]float64, ivs [][]yiv, front envelope.Profile, solve SolveFunc, workers int, noCull bool, co *Coherence, oc *tileOutcome) error {
	r0, r1, c0, c1 := p.TileCells(b, c)
	verifyFailed := false
	if co != nil && !noCull && co.reusable(b*p.NumCols+c) {
		// The previous frame culled or hid this tile; if the conservative
		// cone check confirms the front still covers its world box from the
		// new eye, skip even the extent scan. A cone pass implies the exact
		// check below passes too, so the outcome is identical either way.
		if lo, hi, z, ok := co.Bounds[b*p.NumCols+c].Cone(co.Eye, co.MinDepth); ok && front.CoversAbove(lo, hi, z) {
			*oc = tileOutcome{culled: true, reused: true}
			return nil
		}
		verifyFailed = true
	}
	owned := ownedIV(ys, r0, r1, c0, c1)
	if !noCull {
		if z, ok := l.zBound(r0, r1, c0, c1); ok && front.CoversAbove(owned.lo, owned.hi, z) {
			// Everything the tile could contribute lies on or below the
			// silhouette of the terrain in front of it: skip the solve.
			*oc = tileOutcome{culled: true, verifyFailed: verifyFailed}
			return nil
		}
	}
	// The set-up arena lives until the owned pieces carry global ids.
	s := setupPool.Get().(*setup)
	defer setupPool.Put(s)
	s.halo = haloRanges(ivs, owned, s.halo)
	sub, err := extract(l, p, b, c, r0, r1, s.halo, s)
	if err != nil {
		return err
	}
	prep, err := s.prep.Prepare(sub.t)
	if err != nil {
		return err
	}
	res, err := solve(prep, workers)
	if err != nil {
		return err
	}
	// The tile owns the kernel's pieces: keep the owned ones in place, in
	// global edge numbering.
	kept := res.Pieces[:0]
	for _, pc := range res.Pieces {
		if !sub.owned[pc.Edge] {
			continue // a halo edge: some other tile owns and reports it
		}
		pc.Edge = sub.globalEdge[pc.Edge]
		kept = append(kept, pc)
	}
	*oc = tileOutcome{pieces: kept, counters: res.Counters, crossings: res.Crossings, verifyFailed: verifyFailed}
	return nil
}

// appendClipped appends the portions of piece pc that lie strictly above the
// profile to dst, returning the extended slice and the number of crossings
// discovered. Ties count as occluded, matching envelope.ClipAbove and the
// front-wins convention of the monolithic algorithms.
func appendClipped(dst []hsr.VisiblePiece, pc hsr.VisiblePiece, front envelope.Profile) ([]hsr.VisiblePiece, int64) {
	if len(front) == 0 {
		return append(dst, pc), 0
	}
	sp := pc.Span
	if sp.X2-sp.X1 <= geom.Eps {
		// A vertical-image piece: compare its height range against the
		// profile value at its column (same rules as the solvers' clipOne).
		z, covered := front.Eval(sp.X1, nil)
		switch {
		case !covered:
			return append(dst, pc), 0
		case sp.Z2 > z+geom.Eps:
			var n int64
			if sp.Z1 < z {
				n = 1
				sp.Z1 = z
			}
			pc.Span = sp
			return append(dst, pc), n
		default:
			return dst, 0
		}
	}
	// ClipAbove walks the profile linearly from its first piece; start it at
	// the first piece that can overlap the span (binary search) so a band
	// merge costs O(pieces · log |front|) rather than O(pieces · |front|).
	i := sort.Search(len(front), func(i int) bool { return front[i].X2 > sp.X1+geom.Eps })
	res := envelope.Edges(nil).ClipAbove(geom.Seg2{
		A: geom.Pt2{X: sp.X1, Z: sp.Z1},
		B: geom.Pt2{X: sp.X2, Z: sp.Z2},
	}, envelope.NoEdge, front[i:])
	for _, s := range res.Spans {
		dst = append(dst, hsr.VisiblePiece{Edge: pc.Edge, Span: s})
	}
	return dst, int64(res.Crossings)
}
