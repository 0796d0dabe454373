package terrainhsr

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"terrainhsr/internal/cache"
	"terrainhsr/internal/dem"
	"terrainhsr/internal/engine"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/obs"
	"terrainhsr/internal/store"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/tile"
)

// This file is the viewshed query service: a Server holds a registry of hot
// terrains and answers repeated perspective visibility queries through a
// sharded LRU result cache with singleflight coalescing — the serving tier
// of the roadmap's "heavy traffic" north star. The server carries no
// routing logic of its own: every query builds one internal/engine Request
// and the planner decides the pipeline — batched (one piece per frame),
// batched-tiled for grids at or above the TileCells threshold, out-of-core
// for store levels over the residency budget, coherent for flyover
// frames; the chosen plan is explainable per query (QueryResult.Plan) and
// per terrain (ServerStats.Plans, /statsz).
// The engines underneath never change the answer: cached or not, the
// pieces are the ones a direct FromPerspective + Solve would produce for
// the same (quantized) eye.
//
// Every registration is a level set (engine.LevelSet), and every query
// resolves one terrain and one level and then answers through one path.
// Register wraps an in-memory terrain as a one-level set, answered exactly.
// RegisterStore serves an on-disk LOD store (internal/store +
// internal/lod) whose pyramid levels page in lazily from tile files.
// Queries solve the coarsest level their Query.ErrorBudget admits (a plain
// terrain's only level, always); per-level traffic and store bytes surface
// in ServerStats, and QueryProgressive streams a conservative coarse
// preview followed by the exact finest answer over the same PieceSink
// machinery the streaming solvers use.
//
// ServerStats (stats.go) is the one document a server publishes: counters,
// per-terrain ledgers and the stage latency histograms, which every
// answered query records under its plan mode (observe) whether it arrived
// over HTTP or through the library. Flyover sessions (server_session.go)
// live in an LRU registry next to the result cache.
//
// Cache semantics, in full (see also docs/API.md):
//
//   - Quantization. Each queried eye is snapped per coordinate to the
//     nearest multiple of ServerOptions.Resolution before solving, and the
//     cache key uses the snapped eye. Nearby eyes therefore share one
//     answer: the returned scene is exact for the snapped eye and stale by
//     at most Resolution/2 per axis for the queried one. Resolution 0 (the
//     default) disables snapping — only float-identical eyes share answers.
//   - Epoch invalidation. Every registered terrain carries an epoch that
//     Register bumps when an ID is re-registered. Keys embed the epoch, so
//     replacing a terrain instantly orphans its cached answers; the stale
//     entries are never served again and age out of the LRU under capacity
//     pressure (they are not eagerly purged).
//   - Options fingerprint. Keys embed everything else that can change the
//     answer: the algorithm, MinDepth, and the answering LOD level. The
//     engine a level routes to (monolithic vs tiled) is fixed per
//     registration, so the epoch already pins it. Keys deliberately omit
//     Workers and FrameWorkers: scheduling never changes the computed
//     pieces (asserted by the engine equivalence tests), so queries
//     differing only in worker budget share cache entries.

// ServerOptions configures NewServer. The zero value is a working
// configuration: exact (unquantized) eye keys, a 1024-result cache over 16
// shards, tiled routing for grids of at least 262144 cells, and the full
// machine as worker budget.
type ServerOptions struct {
	// Resolution is the viewpoint quantization grid spacing, in world
	// units. Queried eyes are snapped per coordinate to the nearest
	// multiple before solving, bounding the answer's staleness by
	// Resolution/2 per axis while letting nearby eyes share cached
	// answers. 0 disables snapping (exact float keys).
	Resolution float64
	// CacheCapacity bounds the number of cached results across all shards
	// (exact total). 0 selects 1024; negative disables caching entirely
	// (queries still coalesce nothing and always solve).
	CacheCapacity int
	// Workers bounds each query's solve parallelism, and QueryMany's total
	// budget across concurrent eyes, exactly like Options.Workers
	// (0 = all CPUs). Worker counts never change the computed pieces and
	// are not part of cache keys.
	Workers int
	// TileCells is the engine planner's automatic tiled-routing threshold:
	// grid terrains with at least this many cells (GridRows x GridCols)
	// route through the tiled pipeline, whose peak memory scales with one
	// band of tiles instead of the whole terrain. 0 selects 262144 (a
	// 512x512 grid); negative disables tiled routing. Out-of-core store
	// levels (see ResidencyBudget) always tile. The decision is made
	// by the planner (see ServerStats.Plans for the explained outcome) once
	// per registered level, so the cache key's registration epoch and level
	// pin it: tiled answers, which may differ from monolithic ones in float
	// tails at piece boundaries, never share an entry with them.
	TileCells int
	// ResidencyBudget caps, in bytes, the estimated resident size a store
	// level may have and still be solved in core. Levels estimated above it
	// (engine.EstimateTerrainBytes) route through the out-of-core pipeline:
	// heights page in band by band from tile files, retire once their
	// band's silhouette is merged, and envelope-culled tiles are never read
	// at all — so the level solves in roughly a band of memory instead of
	// the whole terrain, byte-identically to the in-core answer. 0 (the
	// default) disables out-of-core routing: every level loads fully, as
	// before. The budget does not affect plain Register terrains, and it is
	// not part of cache keys (it is fixed per server, and in- and
	// out-of-core answers are identical).
	ResidencyBudget int64
}

// Query asks for the visible scene of a registered terrain from one
// perspective eye point.
type Query struct {
	// TerrainID names a terrain previously passed to Server.Register.
	TerrainID string
	// Eye is the perspective viewpoint, as in Terrain.FromPerspective.
	// The server snaps it to the quantization grid before solving; the
	// snapped eye is reported in QueryResult.Eye.
	Eye Point
	// Algorithm selects the solver (default Parallel), as in Options, out
	// of ServedAlgorithms: the quadratic baselines are refused.
	Algorithm Algorithm
	// MinDepth is the minimum eye-to-vertex x-distance, as in
	// Terrain.FromPerspective; <= 0 selects the same default.
	MinDepth float64
	// ErrorBudget is the acceptable resolution error in world units, for
	// terrains registered from a store (RegisterStore): the query solves the
	// coarsest pyramid level whose cell size stays within the budget — the
	// finite-resolution trade of solving no finer than the consumer can
	// display. <= 0 (and every query against a plain Register terrain)
	// solves exactly. Budgets that pick the same level share cache entries.
	ErrorBudget float64
	// NoCache bypasses the result cache for this query: no lookup, no
	// fill, no coalescing. The solve itself is unchanged.
	NoCache bool
	// Trace, when sampled, receives the query's stage spans (plan, cache,
	// solve, per-band merge and page-in wait) and its cost ledger; the
	// serve layer sets it from the tier's Tracer. Nil — the zero value and
	// the unsampled case — costs nothing and is always safe. Tracing never
	// changes the answer.
	Trace *obs.Trace
}

// QueryResult is one answered query.
type QueryResult struct {
	// Result is the visible scene solved from the quantized eye. Coalesced
	// and cache-hit queries share the identical *Result; it is read-only.
	Result *Result
	// Eye is the quantized eye the scene was solved from.
	Eye Point
	// Cache reports how the answer was obtained: "hit", "miss" (this query
	// ran the solve), "coalesced" (an identical in-flight query ran it), or
	// "bypass" for NoCache queries and cache-disabled servers.
	Cache string
	// Tiled reports whether the query routed through the tiled engine.
	Tiled bool
	// Plan is the engine planner's explanation of how the query executes
	// (see Plan.Explain in internal/engine): the plan this query's solve
	// ran, or for cached and coalesced answers the level's recorded plan —
	// set at Register for plain terrains, on the level's first solve for
	// store-backed ones — reported without re-planning.
	Plan string
	// Mode is the engine pipeline of Plan — "batched", "batched-tiled",
	// "out-of-core" or "coherent" (session frames) — also the mode label of
	// the serve tier's latency histograms.
	Mode string
	// Cost itemizes this query's own time and charged work (see
	// CostLedger); it is per answer, never shared, even when Result is.
	Cost *CostLedger
	// Level is the LOD pyramid level that answered (0 = finest or a plain
	// terrain), Levels the number of levels the terrain has (1 for plain
	// terrains), and LevelCellSize the answering level's sample spacing
	// (0 for plain terrains).
	Level, Levels int
	LevelCellSize float64
	// Reuse reports how a session frame was warm-started from the previous
	// frame; nil outside QuerySession. Session frames stream their pieces
	// to the sink instead of filling Result.
	Reuse *ReuseStats
}

// serverTerrain is one registry slot: the invalidation epoch and the level
// set its queries resolve through. A plain Register is a one-level set
// whose plan is recorded at registration (it depends only on the terrain's
// shape and the server's threshold); a store's levels load lazily from its
// tile files, and each level's plan is recorded the first time a query
// solves on it.
type serverTerrain struct {
	epoch  uint64
	levels *engine.LevelSet
	lv     []serverLevel // one per level, finest first
	st     *store.Store  // the backing store; nil for plain registrations
	mu     sync.Mutex    // guards lv's plan and pager fields
}

// serverLevel is the per-level state of a registry slot.
type serverLevel struct {
	terr  *Terrain     // resident terrain, read only after Executor succeeds; nil for out-of-core levels
	pager *store.Pager // an out-of-core store level's pager, set by its constructor
	hits  atomic.Int64 // answered queries

	plans []levelPlan // recorded plans, first solve first, one per algorithm
}

// levelPlan is one recorded plan of a level: its explanation, tiled flag
// and mode, and the algorithm it was planned for. The plan names the
// kernel the algorithm ran, so a level keeps one plan per algorithm.
type levelPlan struct {
	algo  Algorithm
	plan  string
	tiled bool
	mode  string
}

// recordPlan remembers a level's first plan for algo for cache-hit
// answers.
func (e *serverTerrain) recordPlan(level int, algo Algorithm, plan *engine.Plan) {
	e.mu.Lock()
	defer e.mu.Unlock()
	l := &e.lv[level]
	for _, p := range l.plans {
		if p.algo == algo {
			return
		}
	}
	l.plans = append(l.plans, levelPlan{algo: algo, plan: plan.Explain(), tiled: plan.Tiled, mode: plan.Mode()})
}

// planFor returns the recorded plan, tiled flag and mode of a level for
// algo, or the level's first recorded plan when algo has none ("" before
// the level's first solve).
func (e *serverTerrain) planFor(level int, algo Algorithm) (string, bool, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	plans := e.lv[level].plans
	for _, p := range plans {
		if p.algo == algo {
			return p.plan, p.tiled, p.mode
		}
	}
	if len(plans) == 0 {
		return "", false, ""
	}
	return plans[0].plan, plans[0].tiled, plans[0].mode
}

// Server answers viewshed queries for a set of registered terrains through
// a sharded LRU result cache with singleflight coalescing. It is safe for
// concurrent use; see NewServer for construction and ServerOptions for the
// cache semantics.
type Server struct {
	opt   ServerOptions
	cache *cache.Cache // nil when caching is disabled

	mu       sync.RWMutex
	terrains map[string]*serverTerrain
	// lastEpoch remembers the most recent epoch ever used per ID — it
	// survives Unregister, so an Unregister + Register cycle still bumps
	// the epoch and can never resurrect the old terrain's cached answers.
	lastEpoch map[string]uint64

	solves      atomic.Int64
	tiledSolves atomic.Int64

	sessionFrames, sessionReplays                               atomic.Int64
	tilesReused, tilesReverified, tilesResolved, verifyFailures atomic.Int64

	// sessions is the flyover session registry, keyed like the result cache
	// minus the eye (sessionKey); bounded by maxServerSessions with
	// least-recently-used eviction.
	sessions *cache.Cache

	// metrics holds the per-stage, per-plan-mode latency histograms every
	// answered query records into (ServerStats.Stages, /metricsz).
	metrics *obs.Registry
}

// cacheShards is the number of independently locked result-cache shards
// (cache.New lowers it to the capacity when that is smaller).
const cacheShards = 16

// NewServer builds a query server; see ServerOptions for defaults.
func NewServer(opt ServerOptions) *Server {
	if opt.CacheCapacity == 0 {
		opt.CacheCapacity = 1024
	}
	s := &Server{
		opt:       opt,
		terrains:  make(map[string]*serverTerrain),
		lastEpoch: make(map[string]uint64),
		sessions:  cache.New(maxServerSessions, 1),
		metrics:   obs.NewRegistry(),
	}
	if opt.CacheCapacity > 0 {
		s.cache = cache.New(opt.CacheCapacity, cacheShards)
	}
	return s
}

// Register adds the terrain under the given ID, replacing any previous
// terrain with that ID. Replacement bumps the ID's epoch, which instantly
// invalidates every cached answer for the old terrain (stale entries are
// never served; they age out of the LRU rather than being purged eagerly).
// Registration wraps the terrain as a one-level set, plans its routing and
// prepares the engine state its queries will use (the tile partition, for
// terrains the planner routes tiled), so it does that work once instead of
// per query.
func (s *Server) Register(id string, t *Terrain) error {
	if id == "" {
		return fmt.Errorf("terrainhsr: empty terrain ID")
	}
	if t == nil || t.t == nil {
		return fmt.Errorf("terrainhsr: nil terrain")
	}
	eng := engine.New(t.t, engine.Config{})
	plan, err := eng.Plan(s.request(Query{}, make([]geom.Pt3, 1), s.opt.Workers))
	if err != nil {
		return fmt.Errorf("terrainhsr: register %q: %w", id, err)
	}
	entry := &serverTerrain{levels: engine.SingleLevel(eng), lv: make([]serverLevel, 1)}
	entry.lv[0].terr = t
	entry.recordPlan(0, Parallel, plan)
	s.install(id, entry)
	return nil
}

// install claims the registry slot under the ID, bumping its epoch.
func (s *Server) install(id string, entry *serverTerrain) {
	s.mu.Lock()
	if last, seen := s.lastEpoch[id]; seen {
		entry.epoch = last + 1
	}
	s.lastEpoch[id] = entry.epoch
	s.terrains[id] = entry
	s.mu.Unlock()
}

// RegisterStore adds a terrain persisted as an on-disk LOD store (built by
// BuildStore or cmd/hsrstore) under the given ID. Registration reads only
// the store's manifest: each pyramid level's tiles are paged in the first
// time a query's error budget routes to that level, so registering a
// massive terrain and serving coarse previews from it never loads the
// finest tiles at all. Queries against a store-backed ID honor
// Query.ErrorBudget and report the answering level in QueryResult; epoch
// invalidation on re-registration works exactly as for Register.
func (s *Server) RegisterStore(id string, dir string) error {
	if id == "" {
		return fmt.Errorf("terrainhsr: empty terrain ID")
	}
	st, err := store.Open(dir)
	if err != nil {
		return fmt.Errorf("terrainhsr: register %q: %w", id, err)
	}
	n := st.NumLevels()
	descs := make([]engine.LevelDesc, n)
	for l := range descs {
		li := st.LevelInfo(l)
		descs[l] = engine.LevelDesc{CellSize: li.CellSize, Rows: li.Rows - 1, Cols: li.Cols - 1}
	}
	entry := &serverTerrain{st: st, lv: make([]serverLevel, n)}
	budget := s.opt.ResidencyBudget
	entry.levels, err = engine.NewLevelSet(descs, budget, func(l int, outOfCore bool) (*engine.Executor, error) {
		if outOfCore {
			// The level's estimated resident size exceeds the budget: serve
			// it band-paged. Read-ahead of one tile-grid row overlaps the
			// next band's I/O with the current band's solve; the pager's
			// residency cap evicts retired bands under pressure.
			pg, err := st.NewPager(l, store.PagerOptions{ReadAhead: 1, ResidentLimit: budget})
			if err != nil {
				return nil, err
			}
			d := descs[l]
			reason := fmt.Sprintf("level %d estimated %d MB resident exceeds residency budget %d MB",
				l, engine.EstimateTerrainBytes(d.Rows, d.Cols)>>20, budget>>20)
			entry.mu.Lock()
			entry.lv[l].pager = pg
			entry.mu.Unlock()
			return engine.NewPaged(&tile.PagedGrid{
				Rows: d.Rows, Cols: d.Cols, Cell: d.CellSize,
				Shear: dem.DefaultShear, // the ingestion shear convention
				Src:   pg,
			}, engine.Config{
				// Budget-derived bands: never larger than the automatic
				// size, so answers stay byte-identical to the in-core
				// tiled path at any scale where both can run.
				TileSpec: engine.OutOfCoreSpec(d.Rows, d.Cols, budget),
			}, reason), nil
		}
		d, err := st.LoadLevel(l)
		if err != nil {
			return nil, err
		}
		tt, err := d.ToTerrain(0) // the ingestion shear convention (dem.DefaultShear)
		if err != nil {
			return nil, err
		}
		// The terrain now owns its own vertex copy of the heights; drop the
		// store's cached lattice so a massive level is not resident twice.
		st.DropLevel(l)
		entry.lv[l].terr = &Terrain{t: tt}
		return engine.New(tt, engine.Config{}), nil
	})
	if err != nil {
		return fmt.Errorf("terrainhsr: register %q: %w", id, err)
	}
	s.install(id, entry)
	return nil
}

// storeSummary describes a store-backed slot before any level has solved:
// the pyramid's shape and its out-of-core levels, all from the manifest.
func (s *Server) storeSummary(e *serverTerrain) string {
	n := e.levels.NumLevels()
	cells := make([]float64, n)
	var ooc []int
	for l := range cells {
		cells[l] = e.levels.CellSize(l)
		if e.levels.OutOfCore(l) {
			ooc = append(ooc, l)
		}
	}
	sum := fmt.Sprintf("store %s: %d levels (cells %v), planned per level on first use", e.st.Dir(), n, cells)
	if len(ooc) > 0 {
		sum += fmt.Sprintf("; levels %v out-of-core (residency budget %d MB)", ooc, s.opt.ResidencyBudget>>20)
	}
	return sum
}

// Unregister removes a terrain; it reports whether the ID was registered.
// Cached answers for the ID are orphaned exactly as on replacement.
func (s *Server) Unregister(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.terrains[id]; !ok {
		return false
	}
	delete(s.terrains, id)
	return true
}

// Terrain returns the registered terrain for the ID — for store-backed
// registrations, the finest level, loading it from the store on first use
// (ok is false if that load fails; use Describe for an I/O-free summary).
func (s *Server) Terrain(id string) (*Terrain, bool) {
	t, err := s.LevelTerrain(id, 0)
	return t, err == nil
}

// LevelTerrain returns the terrain of one pyramid level of a store-backed
// registration, loading that level from the store if needed (level 0 = the
// finest, what Terrain returns). For plain registrations only level 0
// exists. Renderers use it to draw against the same surface a leveled
// query actually solved — without paging any other level.
func (s *Server) LevelTerrain(id string, level int) (*Terrain, error) {
	e, err := s.entry(id)
	if err != nil {
		return nil, err
	}
	if level < 0 || level >= e.levels.NumLevels() {
		return nil, fmt.Errorf("terrainhsr: terrain %q has no level %d", id, level)
	}
	if e.levels.OutOfCore(level) {
		return nil, fmt.Errorf("terrainhsr: terrain %q level %d is out-of-core; it solves paged and is never resident", id, level)
	}
	if _, err := e.levels.Executor(level); err != nil {
		return nil, err
	}
	return e.lv[level].terr, nil
}

// TerrainInfo summarizes a registered terrain without forcing any store
// I/O.
type TerrainInfo struct {
	// ID is the registry key.
	ID string
	// Edges, Vertices and Triangles size the finest level (for store-backed
	// terrains they are derived from the manifest's grid shape).
	Edges, Vertices, Triangles int
	// Levels is the LOD pyramid depth (1 for plain terrains) and CellSizes
	// the per-level sample spacing (nil for plain terrains).
	Levels    int
	CellSizes []float64
	// Store is the backing store directory ("" for plain terrains).
	Store string
}

// Describe summarizes a registered terrain. Unlike Terrain it never loads
// tiles, so listing endpoints stay cheap even for massive stores.
func (s *Server) Describe(id string) (TerrainInfo, bool) {
	e, err := s.entry(id)
	if err != nil {
		return TerrainInfo{}, false
	}
	info := TerrainInfo{ID: id, Levels: 1}
	if e.st == nil {
		t := e.lv[0].terr
		info.Edges = t.NumEdges()
		info.Vertices = t.NumVertices()
		info.Triangles = t.NumTriangles()
		return info, true
	}
	li := e.st.LevelInfo(0)
	rows, cols := li.Rows-1, li.Cols-1
	info.Edges = terrain.EdgeCountForGrid(rows, cols)
	info.Vertices = li.Rows * li.Cols
	info.Triangles = 2 * rows * cols
	info.Levels = e.levels.NumLevels()
	info.CellSizes = make([]float64, info.Levels)
	for l := range info.CellSizes {
		info.CellSizes[l] = e.levels.CellSize(l)
	}
	info.Store = e.st.Dir()
	return info, true
}

// TerrainIDs returns the registered IDs in unspecified order.
func (s *Server) TerrainIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.terrains))
	for id := range s.terrains {
		out = append(out, id)
	}
	return out
}

// QuantizeEye returns the eye the server would actually solve from for a
// queried eye: each coordinate snapped to the nearest multiple of the
// configured Resolution (the identity when Resolution is 0).
func (s *Server) QuantizeEye(eye Point) Point {
	res := s.opt.Resolution
	if res <= 0 {
		return eye
	}
	return Point{X: snap(eye.X, res), Y: snap(eye.Y, res), Z: snap(eye.Z, res)}
}

// checkBudget rejects a NaN or infinite Query.ErrorBudget: no pyramid
// level answers it. Eyes and MinDepth are checked by the planner.
func checkBudget(budget float64) error {
	if math.IsNaN(budget) || math.IsInf(budget, 0) {
		return fmt.Errorf("terrainhsr: error budget %v is not finite", budget)
	}
	return nil
}

// snap rounds v to the nearest multiple of res, normalizing -0 to +0 so
// equal quantized eyes always produce identical cache keys.
func snap(v, res float64) float64 {
	q := math.Round(v/res) * res
	if q == 0 {
		return 0
	}
	return q
}

// Query answers one viewshed query. The answer is byte-identical to
// FromPerspective(QueryResult.Eye, MinDepth) + Solve with the same
// algorithm (or to the tiled engine's answer, for terrains routed tiled);
// caching and coalescing never change pieces, only who computes them.
func (s *Server) Query(q Query) (*QueryResult, error) {
	e, level, err := s.resolve(q)
	if err != nil {
		return nil, err
	}
	return s.query(q, e, level, false, s.opt.Workers)
}

// request builds the engine request of one query solve; the planner — not
// the server — decides the pipeline from it.
func (s *Server) request(q Query, eyes []geom.Pt3, workers int) engine.Request {
	return engine.Request{
		Algorithm:   string(resolveAlgo(q.Algorithm)),
		Workers:     workers,
		Perspective: true,
		Eyes:        eyes,
		MinDepth:    q.MinDepth,
		TileCells:   s.opt.TileCells,
		ErrorBudget: q.ErrorBudget,
		Trace:       q.Trace,
	}
}

// ErrUnknownTerrain is the error, wrapped with the queried ID, of every
// query entry point and LevelTerrain when no terrain is registered under
// that ID; test for it with errors.Is.
var ErrUnknownTerrain = errors.New("terrainhsr: no terrain registered")

// entry looks up the registry slot of an ID.
func (s *Server) entry(id string) (*serverTerrain, error) {
	s.mu.RLock()
	e, ok := s.terrains[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w under %q", ErrUnknownTerrain, id)
	}
	return e, nil
}

// resolve finds the query's terrain and the level its error budget picks —
// a manifest-only decision, with no I/O — and refuses an algorithm the
// server does not answer with before anything is solved. Every query entry
// point starts here.
func (s *Server) resolve(q Query) (*serverTerrain, int, error) {
	if err := checkBudget(q.ErrorBudget); err != nil {
		return nil, 0, err
	}
	e, err := s.entry(q.TerrainID)
	if err != nil {
		return nil, 0, err
	}
	if err := checkServed(q.Algorithm); err != nil {
		return nil, 0, err
	}
	level, _ := e.levels.Pick(q.ErrorBudget)
	return e, level, nil
}

// query answers one query on one level of its terrain with an explicit
// per-solve worker budget (Query uses the server budget; QueryMany splits
// it across concurrent eyes). With forced false the level must equal the
// budget's Pick — the planner re-picks it so the recorded plan explains the
// budget decision; forced true pins the level explicitly (the progressive
// passes) and the plan says so.
func (s *Server) query(q Query, e *serverTerrain, level int, forced bool, workers int) (*QueryResult, error) {
	algo := resolveAlgo(q.Algorithm)
	eye := s.QuantizeEye(q.Eye)
	q.Trace.SetTerrain(q.TerrainID)
	qr := &QueryResult{
		Eye: eye, Level: level,
		Levels: e.levels.NumLevels(), LevelCellSize: e.levels.CellSize(level),
	}

	cost := &CostLedger{}
	solve := func() (any, error) {
		req := s.request(q, []geom.Pt3{pt3(eye)}, workers)
		pin := level
		if !forced {
			pin = -1 // let PlanLevel re-pick from the budget, keeping its reason
		}
		tok := q.Trace.StartSpan(obs.StagePlan)
		t0 := time.Now()
		plan, exec, err := e.levels.PlanLevel(req, pin)
		cost.PlanUS = usOf(time.Since(t0))
		q.Trace.EndSpan(tok)
		if err != nil {
			return nil, err
		}
		// This query runs the solve: it reports the plan that executes,
		// worker split and budget reason included.
		qr.Plan, qr.Tiled, qr.Mode = plan.Explain(), plan.Tiled, plan.Mode()
		e.recordPlan(level, algo, plan)
		s.solves.Add(1)
		if plan.Tiled {
			s.tiledSolves.Add(1)
		}
		tok = q.Trace.StartSpan(obs.StageSolve)
		t0 = time.Now()
		outs, err := exec.Run(plan, req)
		cost.SolveUS = usOf(time.Since(t0))
		if err != nil {
			q.Trace.EndSpan(tok)
			return nil, err
		}
		cost.Kernel = plan.Kernel
		cost.noteTile(outs[0].Tile)
		cost.noteResult(outs[0].Res)
		endSolveSpan(q.Trace, tok, plan, cost)
		return newResult(outs[0].Res, algo), nil
	}
	if err := s.answer(qr, e, q, eye, algo, level, solve, cost); err != nil {
		return nil, err
	}
	if qr.Plan == "" {
		// A cached or coalesced answer implies a prior solve of this level
		// under the same epoch (or, for a plain terrain, its registration),
		// so a recorded plan exists; its reason tail may phrase the level
		// pick differently than this query's budget.
		qr.Plan, qr.Tiled, qr.Mode = e.planFor(level, algo)
	}
	e.lv[level].hits.Add(1)
	s.observe(qr)
	return qr, nil
}

// observe records an answered query's ledger stages into the server's
// stage histograms under its plan mode, so library and HTTP traffic alike
// land in ServerStats.Stages. Every stage the query passed through is
// recorded, even one under a microsecond (bucket 0): plan and solve when
// this query solved, cache when it went through the result cache, solve
// alone for a session frame, and merge and page-in wait — parts of a tiled
// solve — when it spent any.
func (s *Server) observe(qr *QueryResult) {
	c := qr.Cost
	rec := func(stage string, us int64) {
		s.metrics.Observe(stage, qr.Mode, time.Duration(us)*time.Microsecond)
	}
	switch qr.Cache {
	case "miss":
		rec(obs.StagePlan, c.PlanUS)
		rec(obs.StageCache, c.CacheUS)
		rec(obs.StageSolve, c.SolveUS)
	case "bypass":
		rec(obs.StagePlan, c.PlanUS)
		rec(obs.StageSolve, c.SolveUS)
	case "hit", "coalesced":
		rec(obs.StageCache, c.CacheUS)
	case "session":
		rec(obs.StageSolve, c.SolveUS)
	}
	if c.MergeUS > 0 {
		rec(obs.StageMerge, c.MergeUS)
	}
	if c.PageWaitUS > 0 {
		rec(obs.StagePageWait, c.PageWaitUS)
	}
}

// Metrics returns the server's stage latency histograms: the registry
// behind ServerStats.Stages, rendered on /metricsz by the serve tier, which
// also records each HTTP request's whole time into it (obs.StageRequest).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// endSolveSpan closes a solve span, attributing the plan mode and the
// output size. The attribute build is guarded so unsampled queries never
// allocate.
func endSolveSpan(tr *obs.Trace, tok obs.SpanToken, plan *engine.Plan, cost *CostLedger) {
	if !tr.Sampled() {
		return
	}
	tr.EndSpanAttrs(tok,
		obs.AttrStr("mode", plan.Mode()),
		obs.AttrStr("kernel", plan.Kernel),
		obs.AttrInt("k", int64(cost.K)),
		obs.AttrInt("work", cost.Work))
}

// answer runs the cache protocol around one solve: bypass for NoCache
// queries and cache-disabled servers, GetOrCompute otherwise. It also
// finishes the query's cost ledger — cache overhead, size terms for shared
// answers — and attaches it to the result and the trace.
func (s *Server) answer(qr *QueryResult, e *serverTerrain, q Query, eye Point, algo Algorithm, level int, solve func() (any, error), cost *CostLedger) error {
	if s.cache == nil || q.NoCache {
		v, err := solve()
		if err != nil {
			return err
		}
		qr.Result, qr.Cache = v.(*Result), "bypass"
		s.finishAnswer(qr, q.Trace, cost)
		return nil
	}
	// The cache span covers the whole GetOrCompute — on a miss the nested
	// plan and solve spans sit inside its time range — while the ledger's
	// CacheUS is the protocol overhead alone (the span minus this query's
	// own plan+solve time).
	tok := q.Trace.StartSpan(obs.StageCache)
	t0 := time.Now()
	v, outcome, err := s.cache.GetOrCompute(s.key(q.TerrainID, e, eye, algo, q.MinDepth, level), solve)
	if err != nil {
		q.Trace.EndSpan(tok)
		return err
	}
	qr.Result, qr.Cache = v.(*Result), outcome.String()
	if cu := usOf(time.Since(t0)) - cost.PlanUS - cost.SolveUS; cu > 0 {
		cost.CacheUS = cu
	}
	if q.Trace.Sampled() {
		q.Trace.EndSpanAttrs(tok, obs.AttrStr("outcome", qr.Cache))
	}
	s.finishAnswer(qr, q.Trace, cost)
	return nil
}

// finishAnswer seals the ledger of an answered query: shared (hit or
// coalesced) answers still report their size terms, and the ledger lands
// on the result and the sampled trace.
func (s *Server) finishAnswer(qr *QueryResult, tr *obs.Trace, cost *CostLedger) {
	cost.noteShared(qr.Result)
	qr.Cost = cost
	tr.SetCost(cost)
}

// key builds the cache key: terrain identity and registration epoch, the
// quantized eye (exact float bits), and the options fingerprint —
// algorithm, MinDepth and the answering LOD level (error budgets that pick
// the same level share entries; the level's routed engine is fixed under
// the epoch); never worker counts (scheduling cannot change pieces).
func (s *Server) key(id string, e *serverTerrain, eye Point, algo Algorithm, minDepth float64, level int) string {
	var b strings.Builder
	b.Grow(len(id) + 88)
	b.WriteString(strconv.Quote(id))
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(e.epoch, 10))
	for _, v := range [...]float64{eye.X, eye.Y, eye.Z, minDepth} {
		b.WriteByte('|')
		b.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
	}
	b.WriteByte('|')
	b.WriteString(string(algo))
	b.WriteString("|L")
	b.WriteString(strconv.Itoa(level))
	return b.String()
}

// QueryMany answers one query template from many eye points — the
// many-observer viewshed workload — under the engine's worker budget
// policy (engine.SplitBudget): up to min(eyes, Workers) eyes are in flight
// concurrently, each solving with its share of the budget, while cache
// hits and coalesced eyes cost no solve at all. Results are in eye order;
// q.Eye is ignored. On error the failure with the lowest eye index is
// reported deterministically (see engine.Frames).
func (s *Server) QueryMany(q Query, eyes []Point) ([]*QueryResult, error) {
	n := len(eyes)
	if n == 0 {
		return nil, nil
	}
	e, level, err := s.resolve(q)
	if err != nil {
		return nil, err
	}
	concurrent, perEye := engine.SplitBudget(s.opt.Workers, 0, n)
	results := make([]*QueryResult, n)
	if err := engine.Frames(concurrent, pts3(eyes), "query", func(i int) error {
		qi := q
		qi.Eye = eyes[i]
		r, err := s.query(qi, e, level, false, perEye)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	}); err != nil {
		return nil, err
	}
	return results, nil
}

// ProgressivePass announces one pass of a progressive query: which pyramid
// level is about to stream, at what resolution, and whether it is the
// final (exact) pass. Result carries the pass's full answer; its pieces
// follow through the sink.
type ProgressivePass struct {
	// Level and CellSize identify the pass's pyramid level.
	Level    int
	CellSize float64
	// Final marks the exact finest-level pass (always the last one).
	Final bool
	// Elapsed is the wall time of this pass's answer (cache lookup plus
	// solve, for misses) — it excludes the time spent streaming other
	// passes' pieces to the sink.
	Elapsed time.Duration
	// Result is the pass's answer, exactly as Query would report it.
	Result *QueryResult
}

// QueryProgressive answers a viewshed query coarse-then-exact: for a
// store-backed terrain it first streams the scene solved at a coarse
// pyramid level — the coarsest level Query.ErrorBudget admits, or the
// coarsest available when no budget is set — and then streams the exact
// finest-level scene. The conservative pyramid makes the preview
// trustworthy: it may hide, but never falsely reveals, so a consumer can
// paint it immediately and only ever add detail. pass is called before
// each pass's pieces go to sink; both passes answer through the result
// cache, so a warm progressive query costs no solve at all. Plain
// terrains (and coarse picks that resolve to the finest level) stream a
// single final pass. An error from pass or sink aborts the query.
func (s *Server) QueryProgressive(q Query, pass func(ProgressivePass) error, sink PieceSink) error {
	e, coarse, err := s.resolve(q)
	if err != nil {
		return err
	}
	if q.ErrorBudget <= 0 {
		coarse = e.levels.NumLevels() - 1
	}
	passes := []int{0}
	if coarse != 0 {
		passes = []int{coarse, 0} // preview, then the exact answer
	}
	for _, level := range passes {
		t0 := time.Now()
		qr, err := s.query(q, e, level, true, s.opt.Workers)
		if err != nil {
			return err
		}
		p := ProgressivePass{
			Level: level, CellSize: qr.LevelCellSize, Final: level == 0,
			Elapsed: time.Since(t0), Result: qr,
		}
		if err := pass(p); err != nil {
			return err
		}
		var sinkErr error
		qr.Result.EachPiece(func(pc Piece) bool {
			sinkErr = sink(pc)
			return sinkErr == nil
		})
		if sinkErr != nil {
			return sinkErr
		}
	}
	return nil
}
