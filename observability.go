package terrainhsr

import (
	"time"

	"terrainhsr/internal/hsr"
	"terrainhsr/internal/obs"
	"terrainhsr/internal/tile"
)

// Trace is the per-query trace handle carried in Query.Trace — aliased
// from internal/obs so library consumers can trace queries without
// reaching into internal packages. A nil *Trace is the untraced case:
// every method is a no-op, so it is always safe to leave Query.Trace
// unset.
type Trace = obs.Trace

// Tracer makes the sampling decision and keeps a bounded ring of
// finished traces (the /tracez payload). Obtain one with NewTracer,
// start traces with its Start or StartIf methods, and seal each trace
// with Finish once the query returns.
type Tracer = obs.Tracer

// NewTracer builds a Tracer sampling one query in every sampleEvery
// (<= 0 disables local sampling; 1 traces everything) with a ring of
// ringCap finished traces (defaulted when <= 0).
func NewTracer(sampleEvery, ringCap int) *Tracer { return obs.NewTracer(sampleEvery, ringCap) }

// This file is the public face of the observability layer (internal/obs):
// the per-query cost ledger the server assembles while answering, attached
// to QueryResult.Cost, to sampled traces (/tracez), and to the hsrserved
// JSON responses. The ledger is observational only — assembling it never
// changes planning, scheduling, or the solved pieces.

// CostLedger itemizes where one answered query's time and charged work
// went. Stage times are wall-clock microseconds of this query's own work:
// a cache hit spends only CacheUS, a miss also pays PlanUS and SolveUS,
// and a coalesced query pays neither (it waited on the query that did).
// The work fields restate the paper's accounting — N input edges, K output
// pieces, and the charged elementary operations behind the
// O((n+k) log n log log n) work bound (Theorem 3.1; see
// ALGORITHM.md) — so output sensitivity is auditable per query, not
// just per experiment. Field names are the wire format of the hsrserved
// "cost" JSON block and of the cost object on /tracez traces.
type CostLedger struct {
	// PlanUS is the time spent planning (including the LOD level pick) and
	// SolveUS the time executing the plan, both zero unless this query ran
	// the solve. MergeUS is the subset of SolveUS spent in tiled band
	// barriers (envelope merge + seam clipping).
	PlanUS  int64 `json:"plan_us"`
	SolveUS int64 `json:"solve_us"`
	MergeUS int64 `json:"merge_us,omitempty"`
	// CacheUS is the result-cache protocol overhead: the full lookup
	// (including any wait on a coalesced in-flight solve) minus this
	// query's own plan and solve time. Zero for bypassed queries.
	CacheUS int64 `json:"cache_us"`
	// PageWaitUS, BytesPaged and PageIns are the out-of-core costs of a
	// paged solve: time blocked on tile-file page-ins, bytes read, and tile
	// files opened. Zero for resident solves; approximate when concurrent
	// solves share one pager (see tile.Stats).
	PageWaitUS int64 `json:"page_wait_us,omitempty"`
	BytesPaged int64 `json:"bytes_paged,omitempty"`
	PageIns    int64 `json:"page_ins,omitempty"`
	// TilesSolved and TilesCulled split a tiled solve's tiles into those
	// that ran a local solve and those skipped because the accumulated
	// silhouette already covered them; TilesReused counts session-frame
	// tiles whose previous verdict a cone check confirmed without solving.
	TilesSolved int `json:"tiles_solved,omitempty"`
	TilesCulled int `json:"tiles_culled,omitempty"`
	TilesReused int `json:"tiles_reused,omitempty"`
	// N is the input size (terrain edges) and K the output size (visible
	// pieces) — the n and k of the output-sensitive bound. Crossings counts
	// the profile crossings discovered (image vertices).
	N         int   `json:"n"`
	K         int   `json:"k"`
	Crossings int64 `json:"crossings,omitempty"`
	// Kernel is the algorithm whose solve charged the terms below and
	// produced the pieces: the plan's kernel (engine.Plan.Kernel), which
	// differs from the requested algorithm for parallel requests.
	// Empty for cache hits and coalesced waits; a session replay names the
	// kernel that solved the frame it replays.
	Kernel string `json:"kernel,omitempty"`
	// Work is the total charged elementary operations
	// (metrics.Counters.Total) and the fields after it its breakdown:
	// envelope merge steps, clip steps, persistent-tree node visits,
	// convex-chain operations, and intersection-query descent steps.
	// All zero when the answer came from the cache or a session replay.
	Work       int64 `json:"work,omitempty"`
	MergeSteps int64 `json:"merge_steps,omitempty"`
	ClipSteps  int64 `json:"clip_steps,omitempty"`
	TreeOps    int64 `json:"tree_ops,omitempty"`
	HullOps    int64 `json:"hull_ops,omitempty"`
	QuerySteps int64 `json:"query_steps,omitempty"`
}

// usOf converts a duration to whole microseconds.
func usOf(d time.Duration) int64 { return int64(d / time.Microsecond) }

// noteTile folds a solve's tile effort report into the ledger.
func (c *CostLedger) noteTile(ts tile.Stats) {
	c.MergeUS += ts.MergeNS / 1e3
	c.PageWaitUS += ts.PageWaitNS / 1e3
	c.BytesPaged += ts.BytesPaged
	c.PageIns += ts.PageIns
	c.TilesSolved += ts.TilesSolved
	c.TilesCulled += ts.TilesCulled
}

// noteResult records the output-sensitivity terms of a solved result.
func (c *CostLedger) noteResult(r *hsr.Result) {
	c.N = r.N
	c.K = r.K()
	c.Crossings = r.Crossings
	c.Work = r.Counters.Total()
	c.MergeSteps = r.Counters.MergeSteps
	c.ClipSteps = r.Counters.ClipSteps
	c.TreeOps = r.Counters.TreeOps
	c.HullOps = r.Counters.HullOps
	c.QuerySteps = r.Counters.QuerySteps
}

// noteShared fills the size terms from a cached or coalesced answer: the
// pieces are shared, so N and K are known even though this query did no
// work (the Work breakdown stays zero — it belongs to the query that
// solved).
func (c *CostLedger) noteShared(r *Result) {
	if r == nil || c.N != 0 {
		return
	}
	c.N = r.N()
	c.K = r.K()
	c.Crossings = r.res.Crossings
}
