package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"terrainhsr/internal/obs"
)

// Options configures a Router. Replicas is the only required field.
type Options struct {
	// Replicas are the base URLs of the serving replicas, e.g.
	// "http://127.0.0.1:8101". Order does not matter: placement comes from
	// the consistent-hash ring, not the list.
	Replicas []string
	// HedgeAfter is how long the router waits on the primary replica's
	// response header before launching the same query against the next
	// successor (first response wins). Operators set it near the fleet's
	// p99 so only tail-latency queries pay a duplicate solve. 0 selects
	// 250ms; negative disables hedging (failover on error still happens).
	HedgeAfter time.Duration
	// ProbeInterval is the /healthz probing period. 0 selects 2s; negative
	// disables active probing (passive ejection from proxy errors still
	// happens).
	ProbeInterval time.Duration
	// EjectAfter is the number of consecutive failures (probe or proxy)
	// after which a replica is ejected from routing preference; the first
	// success readmits it. 0 selects 3.
	EjectAfter int
	// HugeVertices is the per-level sharding threshold: terrains whose
	// finest level has at least this many vertices take level-qualified
	// ring keys (ShardKey), spreading one massive terrain's LOD levels
	// across the fleet. 0 selects 1<<20 (a ~1k x 1k grid); negative
	// disables per-level sharding.
	HugeVertices int
	// VNodes is the ring's virtual-node count per replica (0 selects
	// DefaultVNodes).
	VNodes int
	// AdminToken authenticates the /adminz membership endpoints: requests
	// must carry it as "Authorization: Bearer <token>" (or the
	// X-HSR-Admin-Token header). Empty disables the admin surface — every
	// /adminz request answers 403 — so an unconfigured router cannot have
	// its membership driven by anonymous traffic.
	AdminToken string
	// DrainTimeout bounds how long /adminz/remove waits for a draining
	// replica's in-flight requests (primaries and hedge losers) to finish
	// before dropping it anyway. 0 selects 10s. Requests still in flight
	// at the timeout keep running — removal never cancels them — but the
	// response reports the drain as incomplete.
	DrainTimeout time.Duration
	// WarmupRequests caps how many recorded hot queries /adminz/add
	// replays against a joining replica before it takes live traffic.
	// 0 selects 64; negative disables warm-up (the replica is added
	// cold).
	WarmupRequests int
	// Replication maps terrain IDs to their replication factor: a terrain
	// with factor R spreads its keys across the first R ring successors,
	// and the router round-robins primaries among them. Unlisted terrains
	// (and factors < 2) stay single-homed — the consistent-hash default.
	// Hot terrains want R > 1; cold ones should not pay R caches.
	Replication map[string]int
	// Client issues the proxied requests. The default client has no
	// timeout — responses stream, and slow queries are the hedge's job to
	// cover, not a deadline's to kill.
	Client *http.Client
	// Tracer samples routed queries for the router's /tracez. The router
	// is the head of the fleet, so this is where trace IDs are minted: a
	// sampled query's ID propagates to every attempted replica via
	// X-HSR-Trace, each attempt becomes a child span (winner and losers
	// attributed), and the winning replica's own spans are grafted under
	// its attempt. nil disables router tracing entirely — propagated
	// client IDs still flow through to the replicas untouched.
	Tracer *obs.Tracer
	// Logf receives router diagnostics (default log.Printf; tests silence
	// it).
	Logf func(format string, args ...any)
}

// Membership states of a replica. A replica is born stateWarming (unless
// it was configured at startup, which skips warm-up), serves traffic only
// while stateActive, and leaves through stateDraining: out of the ring —
// so it receives no new primaries and no hedges — but kept in the member
// table until its in-flight requests finish. Health (ejection) is
// orthogonal: an ejected replica is still a member, just routed last.
const (
	stateActive int32 = iota
	stateWarming
	stateDraining
)

// stateName renders a membership state for /adminz/membership and logs.
func stateName(s int32) string {
	switch s {
	case stateWarming:
		return "warming"
	case stateDraining:
		return "draining"
	default:
		return "active"
	}
}

// replica is the router's view of one serving process.
type replica struct {
	addr     string // base URL
	healthy  atomic.Bool
	fails    atomic.Int32 // consecutive failures (probe or proxy)
	state    atomic.Int32 // membership state (stateActive/Warming/Draining)
	inflight atomic.Int64 // attempts launched and not yet disposed of

	mu      sync.Mutex
	lastErr string
}

// note records one observed outcome against the replica's health,
// ejecting after limit consecutive failures and readmitting on the first
// success. It reports whether the healthy state flipped.
func (r *replica) note(ok bool, limit int, err string) (flipped bool) {
	if ok {
		r.fails.Store(0)
		return r.healthy.CompareAndSwap(false, true)
	}
	r.mu.Lock()
	r.lastErr = err
	r.mu.Unlock()
	if int(r.fails.Add(1)) >= limit {
		return r.healthy.CompareAndSwap(true, false)
	}
	return false
}

// terrainMeta is what the router learns about a terrain from /terrains:
// enough to compute the ring key of a query (per-level sub-keys need the
// level the error budget picks, and the huge-terrain policy needs the
// finest level's size).
type terrainMeta struct {
	vertices  int
	cellSizes []float64
}

// pickLevel mirrors the server's budget routing (engine.LevelSet.Pick):
// the coarsest level whose cell size is at most the budget, or the finest
// when the budget is unset or finer than every level. The router only
// uses the pick for placement — the replica re-derives it authoritatively
// — so agreement matters for locality, not correctness.
func (m terrainMeta) pickLevel(budget float64) int {
	pick := 0
	if budget <= 0 {
		return pick
	}
	for l, cell := range m.cellSizes {
		if cell <= budget {
			pick = l
		}
	}
	return pick
}

// Router is the fleet front end: one http.Handler proxying the
// internal/serve endpoints across the replicas. Construct with New, call
// Start to begin health probing, Close to stop it.
type Router struct {
	opt     Options
	ring    *Ring
	client  *http.Client
	logf    func(string, ...any)
	tracer  *obs.Tracer
	metrics *obs.Registry // the router's own request and attempt series

	// winners and losers histogram time-to-response-header per attempt
	// outcome. Losers are the attempts abandoned because another attempt
	// answered first — the latencies hedging hides from every other
	// metric (only the winner's response ever reaches a client-visible
	// histogram). Surfaced on /fleetz and as attempt-stage series on
	// /metricsz.
	winners obs.Histogram
	losers  obs.Histogram

	mu       sync.RWMutex
	replicas map[string]*replica
	order    []string // configured order, for stable reporting
	terrains map[string]terrainMeta
	hot      map[string][]string         // ring key -> recent request URIs (warm-up fuel)
	serves   map[string]map[string]int64 // ring key -> replica -> answers served

	adminMu sync.Mutex // serializes membership changes (add/remove)

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	routed      atomic.Int64
	hedged      atomic.Int64
	hedgeWins   atomic.Int64
	hedgeLosers atomic.Int64
	failovers   atomic.Int64
	ejections   atomic.Int64
	adds        atomic.Int64
	removes     atomic.Int64
	rr          atomic.Int64 // round-robin cursor over replicated primaries
}

// New builds a router over the given replicas. Every replica starts
// healthy; the first probe cycle (or proxy traffic) corrects that
// optimism. Call Start to launch the prober.
func New(opt Options) (*Router, error) {
	if len(opt.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: router needs at least one replica")
	}
	if opt.HedgeAfter == 0 {
		opt.HedgeAfter = 250 * time.Millisecond
	}
	if opt.ProbeInterval == 0 {
		opt.ProbeInterval = 2 * time.Second
	}
	if opt.EjectAfter <= 0 {
		opt.EjectAfter = 3
	}
	if opt.HugeVertices == 0 {
		opt.HugeVertices = 1 << 20
	}
	if opt.DrainTimeout == 0 {
		opt.DrainTimeout = 10 * time.Second
	}
	if opt.WarmupRequests == 0 {
		opt.WarmupRequests = 64
	}
	rt := &Router{
		opt:      opt,
		ring:     NewRing(opt.VNodes),
		client:   opt.Client,
		logf:     opt.Logf,
		tracer:   opt.Tracer,
		metrics:  obs.NewRegistry(),
		replicas: make(map[string]*replica, len(opt.Replicas)),
		terrains: make(map[string]terrainMeta),
		hot:      make(map[string][]string),
		serves:   make(map[string]map[string]int64),
		stop:     make(chan struct{}),
	}
	if rt.client == nil {
		rt.client = &http.Client{}
	}
	if rt.logf == nil {
		rt.logf = log.Printf
	}
	for _, addr := range opt.Replicas {
		if _, dup := rt.replicas[addr]; dup {
			return nil, fmt.Errorf("fleet: duplicate replica %q", addr)
		}
		r := &replica{addr: addr}
		r.healthy.Store(true)
		rt.replicas[addr] = r
		rt.order = append(rt.order, addr)
		rt.ring.Add(addr)
	}
	return rt, nil
}

// Start launches the health prober (a no-op when probing is disabled).
// It also primes the terrain metadata used for ring keys.
func (rt *Router) Start() {
	rt.refreshTerrains()
	if rt.opt.ProbeInterval < 0 {
		return
	}
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		tick := time.NewTicker(rt.opt.ProbeInterval)
		defer tick.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-tick.C:
				rt.probeOnce()
			}
		}
	}()
}

// Close stops the prober and waits for it.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// probeOnce probes every replica's /healthz concurrently.
func (rt *Router) probeOnce() {
	var wg sync.WaitGroup
	for _, r := range rt.snapshotReplicas() {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), rt.opt.ProbeInterval)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.addr+"/healthz", nil)
			if err != nil {
				rt.noteOutcome(r, false, "probe: "+err.Error())
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				rt.noteOutcome(r, false, "probe: "+err.Error())
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rt.noteOutcome(r, resp.StatusCode == http.StatusOK,
				"probe: status "+resp.Status)
		}(r)
	}
	wg.Wait()
}

// noteOutcome feeds one observation into a replica's health state and
// logs ejections and readmissions.
func (rt *Router) noteOutcome(r *replica, ok bool, errMsg string) {
	if r.note(ok, rt.opt.EjectAfter, errMsg) {
		if ok {
			rt.logf("fleet: replica %s readmitted", r.addr)
		} else {
			rt.ejections.Add(1)
			rt.logf("fleet: replica %s ejected after %d consecutive failures (%s)",
				r.addr, rt.opt.EjectAfter, errMsg)
		}
	}
}

// snapshotReplicas returns the replica set in configured order.
func (rt *Router) snapshotReplicas() []*replica {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*replica, 0, len(rt.order))
	for _, addr := range rt.order {
		out = append(out, rt.replicas[addr])
	}
	return out
}

// refreshTerrains learns the terrain metadata (sizes, cell sizes) from
// the first replica that answers /terrains. Failures are logged and left
// for the next refresh: metadata only sharpens placement, it never gates
// serving.
func (rt *Router) refreshTerrains() {
	for _, r := range rt.snapshotReplicas() {
		resp, err := rt.client.Get(r.addr + "/terrains")
		if err != nil {
			continue
		}
		var body struct {
			Terrains []struct {
				ID        string    `json:"id"`
				Vertices  int       `json:"vertices"`
				CellSizes []float64 `json:"cell_sizes"`
			} `json:"terrains"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			rt.logf("fleet: parse %s/terrains: %v", r.addr, err)
			continue
		}
		meta := make(map[string]terrainMeta, len(body.Terrains))
		for _, t := range body.Terrains {
			meta[t.ID] = terrainMeta{vertices: t.Vertices, cellSizes: t.CellSizes}
		}
		rt.mu.Lock()
		rt.terrains = meta
		rt.mu.Unlock()
		return
	}
	rt.logf("fleet: no replica answered /terrains; routing on terrain IDs only")
}

// shardKey computes the ring key of one /viewshed request: the terrain ID,
// level-qualified for huge terrains (see ShardKey). Unknown terrains
// trigger one metadata refresh — a replica may have learned a terrain
// after the router started.
func (rt *Router) shardKey(terrain string, budget float64) string {
	rt.mu.RLock()
	meta, ok := rt.terrains[terrain]
	rt.mu.RUnlock()
	if !ok {
		rt.refreshTerrains()
		rt.mu.RLock()
		meta, ok = rt.terrains[terrain]
		rt.mu.RUnlock()
	}
	if !ok || rt.opt.HugeVertices < 0 || meta.vertices < rt.opt.HugeVertices {
		return ShardKey(terrain, 0, false)
	}
	return ShardKey(terrain, meta.pickLevel(budget), true)
}

// replicationFor returns a terrain's replication factor (>= 1). Keys of
// per-level shards inherit the factor of their terrain.
func (rt *Router) replicationFor(terrain string) int {
	if rf := rt.opt.Replication[terrain]; rf > 1 {
		return rf
	}
	return 1
}

// terrainOfKey strips the per-level qualifier off a ring key, recovering
// the terrain ID that ShardKey embedded.
func terrainOfKey(key string) string {
	if i := strings.LastIndex(key, "#L"); i >= 0 {
		return key[:i]
	}
	return key
}

// routeOrder returns the replicas to try for a key, in preference order.
// The ring only holds active members, so warming and draining replicas
// never appear — no new primaries and no hedges reach them. The first rf
// healthy successors are the key's replica group: the router round-robins
// the primary among them (this is how a replication factor > 1 turns into
// load spreading), keeps the rest of the group next (they likely hold the
// key warm), then the remaining healthy successors, then ejected members
// at the tail rather than vanishing — a fully ejected fleet still routes,
// it just expects errors.
func (rt *Router) routeOrder(key string, rf int) []*replica {
	succ := rt.ring.Successors(key, 0)
	if rf < 1 {
		rf = 1
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var group, rest, tail []*replica
	for i, addr := range succ {
		r := rt.replicas[addr]
		if r == nil || r.state.Load() != stateActive {
			continue
		}
		switch {
		case !r.healthy.Load():
			tail = append(tail, r)
		case i < rf:
			group = append(group, r)
		default:
			rest = append(rest, r)
		}
	}
	if len(group) > 1 {
		k := int(rt.rr.Add(1)-1) % len(group)
		group = append(append(make([]*replica, 0, len(group)), group[k:]...), group[:k]...)
	}
	out := append(group, rest...)
	return append(out, tail...)
}

// ServeHTTP dispatches the fleet endpoints: /viewshed (hedged proxy),
// /terrains (proxied from the first answering replica), /statsz
// (fleet-wide aggregation), /metricsz (fleet-wide histogram aggregation),
// /tracez (the router's sampled traces), /healthz (fleet liveness: ok
// while any replica is healthy) and /fleetz (router introspection).
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/viewshed":
		rt.viewshed(w, r)
	case "/terrains":
		rt.proxyAny(w, r)
	case "/statsz":
		rt.statsz(w, r)
	case "/metricsz":
		rt.metricsz(w, r)
	case "/tracez":
		rt.tracer.ServeHTTP(w, r) // nil tracer answers 404 itself
	case "/healthz":
		rt.healthz(w, r)
	case "/fleetz":
		rt.fleetz(w, r)
	default:
		if strings.HasPrefix(r.URL.Path, "/adminz/") {
			rt.adminz(w, r)
			return
		}
		http.NotFound(w, r)
	}
}

// healthz reports fleet liveness: 200 while at least one active replica
// is healthy, 503 otherwise (warming and draining members cannot take
// traffic, so they don't count).
func (rt *Router) healthz(w http.ResponseWriter, _ *http.Request) {
	for _, r := range rt.snapshotReplicas() {
		if r.healthy.Load() && r.state.Load() == stateActive {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
			return
		}
	}
	http.Error(w, "no healthy replicas", http.StatusServiceUnavailable)
}

// viewshed routes one query: ring placement, then a hedged proxy across
// the preference order. This is where a trace begins: the router either
// adopts the client's propagated X-HSR-Trace ID or mints one by sampling,
// and finishes the trace after the winning response has streamed.
func (rt *Router) viewshed(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "viewshed queries are GET", http.StatusMethodNotAllowed)
		return
	}
	qv := r.URL.Query()
	terrain := qv.Get("terrain")
	budget := 0.0
	if v := qv.Get("budget"); v != "" {
		budget, _ = strconv.ParseFloat(v, 64)
	}
	tr := rt.tracer.StartIf(r.Header.Get(obs.TraceHeader))
	if tr.Sampled() {
		tr.SetTerrain(terrain)
		// Name the trace before any write: error responses carry the ID
		// too, so a failed routed query is still findable on /tracez.
		w.Header().Set(obs.TraceHeader, tr.ID())
	}
	reqTok := tr.StartSpan(obs.StageRequest)
	t0 := time.Now()
	// A missing terrain parameter is legal for single-terrain replicas;
	// route it by the empty key so it still lands consistently.
	key := rt.shardKey(terrain, budget)
	rt.recordQuery(key, r.URL.RequestURI())
	order := rt.routeOrder(key, rt.replicationFor(terrain))
	rt.routed.Add(1)
	rt.proxyHedged(w, r, key, order, tr, reqTok)
	rt.metrics.Observe(obs.StageRequest, "router", time.Since(t0))
	if tr.Sampled() {
		tr.EndSpanAttrs(reqTok, obs.AttrStr("key", key))
	}
	rt.tracer.Finish(tr)
}

// hotQueriesPerKey bounds the per-key warm-up fuel: enough distinct eyes
// to prime a joining replica's cache for the key's working set, small
// enough that recording costs nothing per request.
const hotQueriesPerKey = 16

// recordQuery remembers a request URI as warm-up fuel for its ring key:
// the most recent distinct URIs, capped per key. Key count is bounded by
// the terrain set (plus level qualifiers), so the table cannot grow with
// traffic.
func (rt *Router) recordQuery(key, uri string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	uris := rt.hot[key]
	for _, u := range uris {
		if u == uri {
			return
		}
	}
	if len(uris) >= hotQueriesPerKey {
		uris = append(uris[:0], uris[1:]...)
	}
	rt.hot[key] = append(uris, uri)
}

// recordServe credits one answered query to the replica that served it —
// the per-key share ledger behind /fleetz's key_serves, which is how an
// operator (and the E1 experiment) verifies a replicated terrain's load
// actually spreads.
func (rt *Router) recordServe(key, addr string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m := rt.serves[key]
	if m == nil {
		m = make(map[string]int64)
		rt.serves[key] = m
	}
	m[addr]++
}

// proxyAny forwards the request to the first replica that answers —
// listing endpoints are identical on every replica.
func (rt *Router) proxyAny(w http.ResponseWriter, r *http.Request) {
	order := rt.routeOrder("", 1)
	rt.proxyHedged(w, r, "", order, nil, obs.SpanToken{})
}

// attempt is one in-flight proxied request.
type attempt struct {
	r      *replica
	resp   *http.Response
	err    error
	cancel context.CancelFunc
	idx    int           // launch index, to match settled results
	kind   string        // "primary", "hedge" or "failover"
	start  time.Time     // launch time, for attempt latency
	span   obs.SpanToken // the attempt's span (inert when unsampled)
}

// finish disposes of one attempt: cancels it, releases its body, and
// returns its in-flight slot — the count a draining replica waits on.
// Every launched attempt passes through finish exactly once (loser,
// error, or winner after its body streamed), so inflight reaching zero
// really means the replica has no router traffic left.
func (a attempt) finish() {
	a.cancel()
	if a.resp != nil {
		a.resp.Body.Close()
	}
	a.r.inflight.Add(-1)
}

// Canonical forms of the obs headers, for matching keys of a parsed
// http.Header (whose keys are canonicalized).
var (
	canonTraceHeader = http.CanonicalHeaderKey(obs.TraceHeader)
	canonSpansHeader = http.CanonicalHeaderKey(obs.SpansHeader)
)

// endAttemptSpan closes one attempt's span with its outcome and replica
// attribution. It must run on the request's own goroutine, before the
// trace seals; loser latencies are recorded separately (observeLoser) at
// the moment the loser's response header actually arrives.
func (rt *Router) endAttemptSpan(tr *obs.Trace, a attempt, outcome string) {
	if !tr.Sampled() {
		return
	}
	tr.EndSpanAttrs(a.span,
		obs.AttrStr("replica", a.r.addr),
		obs.AttrStr("kind", a.kind),
		obs.AttrStr("outcome", outcome),
		obs.AttrInt("latency_us", time.Since(a.start).Microseconds()))
}

// observeLoser records one losing attempt's true time-to-header — the
// satellite point of the loser histogram: a hedge loser's latency never
// reaches any client-visible metric, because only the winner's response
// streams.
func (rt *Router) observeLoser(lat time.Duration) {
	rt.hedgeLosers.Add(1)
	rt.losers.Observe(lat)
	rt.metrics.Observe(obs.StageAttempt, "loser", lat)
}

// proxyHedged issues the request against order[0], hedging to the next
// successor each time HedgeAfter elapses without a response header, and
// failing over immediately on transport errors and 5xx responses. The
// first acceptable response streams to the client; every other attempt is
// canceled and drained. Responses below 500 — including 4xx — are
// authoritative: every replica answers a malformed query identically, so
// retrying one would only double the error's cost. Replicas that started
// draining after the order was computed are skipped at launch time, and
// every launched attempt holds the replica's in-flight count until it is
// fully disposed of — the drain barrier /adminz/remove waits behind.
//
// When tr is sampled, every launch opens a StageAttempt child span under
// reqTok, the trace ID is forwarded upstream via X-HSR-Trace (so the
// replica traces the query and returns its spans), and the winner's
// X-HSR-Spans are grafted under its attempt span — one trace then covers
// the route, every attempt, and the winning replica's internal stages.
// Loser spans close when the loser's response header finally arrives,
// which may be after the trace is sealed; late spans are dropped, their
// latencies still land in the loser histogram.
func (rt *Router) proxyHedged(w http.ResponseWriter, r *http.Request, key string, order []*replica, tr *obs.Trace, reqTok obs.SpanToken) {
	results := make(chan attempt, len(order))
	launched := 0
	// open records every launched attempt (settled[i] flips when its
	// result arrives), so the race's end can close the spans of losers
	// that are still in flight — their results arrive only after the
	// trace has sealed.
	var open []attempt
	var settled []bool
	launch := func(kind string) bool {
		for launched < len(order) {
			rep := order[launched]
			launched++
			if rep.state.Load() != stateActive {
				continue // started draining/leaving after the order was computed
			}
			rep.inflight.Add(1)
			a := attempt{
				r:     rep,
				idx:   len(open),
				kind:  kind,
				start: time.Now(),
				span:  tr.StartChild(reqTok, obs.StageAttempt),
			}
			open = append(open, a)
			settled = append(settled, false)
			ctx, cancel := context.WithCancel(r.Context())
			go func() {
				a.cancel = cancel
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.r.addr+r.URL.RequestURI(), nil)
				if err != nil {
					a.err = err
					results <- a
					return
				}
				req.Header = r.Header.Clone()
				if tr.Sampled() {
					req.Header.Set(obs.TraceHeader, tr.ID())
				}
				a.resp, a.err = rt.client.Do(req)
				results <- a
			}()
			return true
		}
		return false
	}
	if !launch("primary") {
		http.Error(w, "fleet: no replicas", http.StatusBadGateway)
		return
	}
	hedge := time.NewTimer(rt.hedgeDelay())
	defer hedge.Stop()

	var won *attempt
	pending := 1
	lastErr := "fleet: no attempt completed"
	hedgesUsed := false
	for won == nil && pending > 0 {
		select {
		case a := <-results:
			pending--
			settled[a.idx] = true
			if a.err != nil {
				// A canceled context means the client went away, not that
				// the replica failed; don't charge the replica for it.
				if r.Context().Err() == nil {
					rt.noteOutcome(a.r, false, a.err.Error())
				}
				lastErr = a.err.Error()
				rt.endAttemptSpan(tr, a, "error")
				a.finish()
			} else if a.resp.StatusCode >= http.StatusInternalServerError {
				lastErr = fmt.Sprintf("%s: %s", a.r.addr, a.resp.Status)
				io.Copy(io.Discard, a.resp.Body)
				rt.noteOutcome(a.r, false, "proxy: "+a.resp.Status)
				rt.endAttemptSpan(tr, a, "error")
				a.finish()
			} else {
				rt.noteOutcome(a.r, true, "")
				won = &a
				break
			}
			if r.Context().Err() == nil {
				if launch("failover") {
					rt.failovers.Add(1)
					pending++
				}
			}
		case <-hedge.C:
			if launch("hedge") {
				rt.hedged.Add(1)
				hedgesUsed = true
				pending++
				hedge.Reset(rt.hedgeDelay())
			}
		}
	}
	// Close the spans of attempts that lost while still in flight — now,
	// on this goroutine, so they land in the trace before it seals. Their
	// span duration is the time they raced; their true time-to-header is
	// recorded below when their response finally arrives.
	if tr.Sampled() {
		for i, a := range open {
			if !settled[i] {
				rt.endAttemptSpan(tr, a, "lost")
			}
		}
	}
	// Abandon the losers: drain them off the channel so their goroutines,
	// bodies and in-flight slots are released. Each loser is only canceled
	// once its response header has arrived (finish cancels), so the
	// latency observed here is the loser's genuine time-to-header — the
	// number the loser histogram exists to make visible. A loser whose
	// transport errored (including the client going away) is disposed of
	// without an observation.
	if pending > 0 {
		go func(n int) {
			for i := 0; i < n; i++ {
				a := <-results
				if a.err == nil {
					rt.observeLoser(time.Since(a.start))
				}
				a.finish()
			}
		}(pending)
	}
	if won == nil {
		http.Error(w, "fleet: all replicas failed: "+lastErr, http.StatusBadGateway)
		return
	}
	if hedgesUsed {
		rt.hedgeWins.Add(1)
	}
	winLat := time.Since(won.start)
	rt.winners.Observe(winLat)
	rt.metrics.Observe(obs.StageAttempt, "winner", winLat)
	if tr.Sampled() {
		tr.Graft(won.span, obs.ParseSpans(won.resp.Header.Get(obs.SpansHeader)))
	}
	rt.endAttemptSpan(tr, *won, "winner")
	defer won.finish()
	if key != "" {
		rt.recordServe(key, won.r.addr)
	}
	for k, vs := range won.resp.Header {
		// When the router owns the trace, the replica's span export was
		// grafted above — forwarding it raw would hand the client half a
		// trace in a replica-local ID space — and the trace header is
		// already set by viewshed (router's ID == replica's echoed ID).
		// Unsampled, the router stays a transparent proxy and both
		// headers pass through untouched.
		if tr.Sampled() && (k == canonSpansHeader || k == canonTraceHeader) {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	// Name the serving replica so identity tests and operators can compare
	// the routed answer against the replica's own.
	w.Header().Set("X-HSR-Replica", won.r.addr)
	w.WriteHeader(won.resp.StatusCode)
	if _, err := io.Copy(w, won.resp.Body); err != nil {
		rt.logf("fleet: stream from %s truncated: %v", won.r.addr, err)
	}
}

// hedgeDelay returns the hedge timer duration — effectively infinite when
// hedging is disabled, so only errors advance the attempt sequence.
func (rt *Router) hedgeDelay() time.Duration {
	if rt.opt.HedgeAfter < 0 {
		return time.Duration(1<<62 - 1)
	}
	return rt.opt.HedgeAfter
}

// ReplicaHealth is one replica's health as /fleetz and Snapshot report it.
type ReplicaHealth struct {
	// Addr is the replica's base URL.
	Addr string `json:"addr"`
	// State is the membership state: "active", "warming" or "draining".
	State string `json:"state"`
	// Healthy is the routing eligibility (false = ejected).
	Healthy bool `json:"healthy"`
	// Inflight counts attempts the router has in flight against this
	// replica — what a drain waits to reach zero.
	Inflight int64 `json:"inflight,omitempty"`
	// ConsecutiveFails counts failures since the last success.
	ConsecutiveFails int `json:"consecutive_fails,omitempty"`
	// LastError is the most recent failure, if any.
	LastError string `json:"last_error,omitempty"`
}

// Snapshot reports every replica's health in configured order.
func (rt *Router) Snapshot() []ReplicaHealth {
	reps := rt.snapshotReplicas()
	out := make([]ReplicaHealth, 0, len(reps))
	for _, r := range reps {
		r.mu.Lock()
		lastErr := r.lastErr
		r.mu.Unlock()
		out = append(out, ReplicaHealth{
			Addr:             r.addr,
			State:            stateName(r.state.Load()),
			Healthy:          r.healthy.Load(),
			Inflight:         r.inflight.Load(),
			ConsecutiveFails: int(r.fails.Load()),
			LastError:        lastErr,
		})
	}
	return out
}

// RouterCounters are the router's own traffic counters (on /fleetz).
type RouterCounters struct {
	// Routed counts /viewshed requests accepted for routing.
	Routed int64 `json:"routed"`
	// Hedged counts hedge launches (a second attempt after HedgeAfter).
	Hedged int64 `json:"hedged"`
	// HedgeWins counts routed requests answered after at least one hedge
	// launch (by either the primary or the hedge — the tail the hedge
	// covered).
	HedgeWins int64 `json:"hedge_wins"`
	// HedgeLosers counts attempts that completed a response after another
	// attempt had already won the race (hedges and failovers alike).
	// Their latencies are in /fleetz attempt_latency.loser — otherwise
	// they would be invisible, since only winners' responses stream.
	HedgeLosers int64 `json:"hedge_losers"`
	// Failovers counts immediate retries after errors or 5xx.
	Failovers int64 `json:"failovers"`
	// Ejections counts health ejections (readmissions are not counted).
	Ejections int64 `json:"ejections"`
	// Adds and Removes count runtime membership changes accepted on
	// /adminz (startup replicas are not counted).
	Adds    int64 `json:"adds"`
	Removes int64 `json:"removes"`
}

// Counters snapshots the router's traffic counters.
func (rt *Router) Counters() RouterCounters {
	return RouterCounters{
		Routed:      rt.routed.Load(),
		Hedged:      rt.hedged.Load(),
		HedgeWins:   rt.hedgeWins.Load(),
		HedgeLosers: rt.hedgeLosers.Load(),
		Failovers:   rt.failovers.Load(),
		Ejections:   rt.ejections.Load(),
		Adds:        rt.adds.Load(),
		Removes:     rt.removes.Load(),
	}
}

// Placement reports which replicas currently serve each routed key (the
// key's first R ring successors, R = the terrain's replication factor)
// and how many answers each has served. Keys appear once traffic has
// routed them or their terrain is known from /terrains.
func (rt *Router) Placement() map[string][]string {
	rt.mu.RLock()
	keys := make(map[string]bool, len(rt.serves)+len(rt.terrains))
	for k := range rt.serves {
		keys[k] = true
	}
	for id := range rt.terrains {
		keys[ShardKey(id, 0, false)] = true
	}
	rt.mu.RUnlock()
	out := make(map[string][]string, len(keys))
	for k := range keys {
		out[k] = rt.ring.Successors(k, rt.replicationFor(terrainOfKey(k)))
	}
	return out
}

// KeyServes snapshots the per-key, per-replica answer counts.
func (rt *Router) KeyServes() map[string]map[string]int64 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make(map[string]map[string]int64, len(rt.serves))
	for k, m := range rt.serves {
		c := make(map[string]int64, len(m))
		for addr, n := range m {
			c[addr] = n
		}
		out[k] = c
	}
	return out
}

// AttemptLatency summarizes one attempt-outcome latency histogram for
// /fleetz: quantiles are bucket-interpolated (see obs.HistSnapshot), so
// they carry at most a factor-of-two error.
type AttemptLatency struct {
	// Count is the number of attempts with this outcome.
	Count uint64 `json:"count"`
	// MeanUS, P50US and P99US are the mean and quantile latencies from
	// launch to response header, in microseconds.
	MeanUS int64 `json:"mean_us"`
	P50US  int64 `json:"p50_us"`
	P99US  int64 `json:"p99_us"`
}

// summarizeLatency reduces a histogram snapshot to the /fleetz summary.
func summarizeLatency(s obs.HistSnapshot) AttemptLatency {
	return AttemptLatency{
		Count:  s.Count,
		MeanUS: s.Mean().Microseconds(),
		P50US:  s.Quantile(0.5).Microseconds(),
		P99US:  s.Quantile(0.99).Microseconds(),
	}
}

// AttemptLatencies reports winner and loser attempt latencies side by
// side. A loser p50 close to the winner p50 means the hedge is mostly
// racing healthy replicas (tighten HedgeAfter); a loser tail far beyond
// the winners means it is covering genuine stragglers.
type AttemptLatencies struct {
	// Winner summarizes attempts whose response streamed to the client.
	Winner AttemptLatency `json:"winner"`
	// Loser summarizes attempts that completed after losing the race.
	Loser AttemptLatency `json:"loser"`
}

// AttemptLatencies snapshots the router's attempt latency histograms.
func (rt *Router) AttemptLatencies() AttemptLatencies {
	return AttemptLatencies{
		Winner: summarizeLatency(rt.winners.Snapshot()),
		Loser:  summarizeLatency(rt.losers.Snapshot()),
	}
}

// fleetz serves the router's introspection: replica health, counters,
// attempt latencies (winner vs hedge-loser), ring membership, per-key
// placement (which replicas serve each key under its replication factor)
// and per-key serve counts.
func (rt *Router) fleetz(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		Replicas    []ReplicaHealth             `json:"replicas"`
		Counters    RouterCounters              `json:"counters"`
		Attempts    AttemptLatencies            `json:"attempt_latency"`
		Ring        []string                    `json:"ring"`
		Replication map[string]int              `json:"replication,omitempty"`
		Placement   map[string][]string         `json:"placement,omitempty"`
		KeyServes   map[string]map[string]int64 `json:"key_serves,omitempty"`
	}{rt.Snapshot(), rt.Counters(), rt.AttemptLatencies(), rt.ring.Members(), rt.opt.Replication, rt.Placement(), rt.KeyServes()}
	writeJSON(w, out)
}

// writeJSON writes v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("fleet: encode: %v", err)
	}
}
