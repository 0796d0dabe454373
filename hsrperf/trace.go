package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	terrainhsr "terrainhsr"
	"terrainhsr/internal/obs"
	"terrainhsr/internal/serve"
)

// span is one timed region of the traced run, at a layer boundary. Spans
// of one request share Req; direct layer calls made outside any request
// use negative Req values. Times are nanoseconds from the run's start.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layers names the modules a traced request's time is attributed to, in
// report order.
var layers = []string{"serve", "query", "cache", "engine", "tile", "tile.merge", "store", "session", "kernel"}

// stageLayer maps the program's trace stages (the spans its Tracer already
// records) to layer names; stages not listed are dropped.
func stageLayer(stage string, tiled bool) string {
	switch stage {
	case "cache":
		return "cache"
	case "plan":
		return "engine"
	case "solve":
		if tiled {
			return "tile"
		}
		return "kernel"
	case "band":
		return "tile"
	case "merge":
		return "tile.merge"
	case "page_wait":
		return "store"
	case "session":
		return "session"
	}
	return ""
}

// tracedReq is what the traced run keeps per request.
type tracedReq struct {
	latency time.Duration
	self    map[string]int64 // layer -> self time, ns
	cost    *terrainhsr.CostLedger
	solved  int
	culled  int
}

// collector builds each traced request's span tree: the benchmark's own
// span around the handler call, the Server.Query span the handler reports
// as elapsed_ms, and the program's stage spans fetched from its Tracer.
type collector struct {
	start    time.Time
	tracer   *terrainhsr.Tracer
	viewshed bool // requests are /viewshed (else /flyover)
	spans    []span
	reqs     []tracedReq
}

func (c *collector) add(s span) int {
	s.ID = len(c.spans) + 1
	c.spans = append(c.spans, s)
	return s.ID
}

func (c *collector) ns(t time.Time) int64 { return t.Sub(c.start).Nanoseconds() }

func (c *collector) observe(lat time.Duration, serveStart, serveEnd time.Time, body []byte) {
	req := len(c.reqs)
	first := len(c.spans)
	root := c.add(span{Req: req, Name: "serve", Start: c.ns(serveStart), End: c.ns(serveEnd)})
	tr := tracedReq{latency: lat, self: map[string]int64{}}

	var base int64
	var ps []obs.Span
	if got := c.tracer.Traces(); len(got) > 0 {
		base, ps = c.ns(got[0].Start), got[0].Spans
		tr.cost, _ = got[0].Cost.(*terrainhsr.CostLedger)
	}
	tiled := false
	for _, s := range ps {
		if s.Stage == obs.StageBand {
			tiled = true
			tr.solved += attrInt(s.Attrs, "tiles_solved")
			tr.culled += attrInt(s.Attrs, "tiles_culled")
		}
	}
	// A /viewshed response reports its Server.Query time as elapsed_ms:
	// that interval is the query layer, and the program's root stages nest
	// in it. /flyover reports per-frame times instead; there the program's
	// session spans sit directly under the handler.
	parent := root
	if ms, ok := firstElapsedMS(body); ok && c.viewshed {
		start := c.spans[root-1].Start
		for _, s := range ps { // spans are sorted by start
			if s.Parent == 0 && stageLayer(s.Stage, tiled) != "" {
				start = base + s.StartUS*1000
				break
			}
		}
		parent = c.add(span{Req: req, Parent: root, Name: "query", Start: start, End: start + int64(ms*1e6)})
	}
	c.nest(req, parent, base, ps, tiled)

	// Self time: a span's duration minus what its direct children cover.
	self := make([]int64, len(c.spans)-first)
	for i := first; i < len(c.spans); i++ {
		self[i-first] = c.spans[i].dur()
	}
	for i := first; i < len(c.spans); i++ {
		if p := c.spans[i].Parent; p > first {
			self[p-1-first] -= c.spans[i].dur()
		}
	}
	for i, v := range self {
		if v < 0 {
			v = 0
		}
		tr.self[c.spans[first+i].Name] += v
	}
	c.reqs = append(c.reqs, tr)
}

func attrInt(attrs []obs.Attr, key string) int {
	for _, a := range attrs {
		if a.K == key {
			n, _ := strconv.Atoi(a.V)
			return n
		}
	}
	return 0
}

// nest adds the program's stage spans under parent. The program records
// its stages as flat roots (merge and page-wait are the only children), so
// nesting follows time containment: each span goes under the innermost
// earlier span that contains it.
func (c *collector) nest(req, parent int, base int64, ps []obs.Span, tiled bool) {
	type open struct {
		id  int
		end int64
	}
	idOf := map[int32]int{}
	var roots []obs.Span
	for _, s := range ps {
		if s.Parent == 0 && stageLayer(s.Stage, tiled) != "" {
			roots = append(roots, s)
		}
	}
	sort.SliceStable(roots, func(i, j int) bool {
		if roots[i].StartUS != roots[j].StartUS {
			return roots[i].StartUS < roots[j].StartUS
		}
		return roots[i].DurUS > roots[j].DurUS
	})
	var stack []open
	for _, s := range roots {
		st, end := base+s.StartUS*1000, base+(s.StartUS+s.DurUS)*1000
		// One microsecond of slack: the program rounds offsets down.
		for len(stack) > 0 && end > stack[len(stack)-1].end+1000 {
			stack = stack[:len(stack)-1]
		}
		p := parent
		if len(stack) > 0 {
			p = stack[len(stack)-1].id
		}
		id := c.add(span{Req: req, Parent: p, Name: stageLayer(s.Stage, tiled), Start: st, End: end})
		idOf[s.ID] = id
		stack = append(stack, open{id: id, end: end})
	}
	for _, s := range ps {
		if s.Parent == 0 || stageLayer(s.Stage, tiled) == "" {
			continue
		}
		if p, ok := idOf[s.Parent]; ok {
			st := base + s.StartUS*1000
			c.add(span{Req: req, Parent: p, Name: stageLayer(s.Stage, tiled), Start: st, End: st + s.DurUS*1000})
		}
	}
}

// firstElapsedMS returns the first elapsed_ms value in a response body.
func firstElapsedMS(body []byte) (float64, bool) {
	key := []byte(`"elapsed_ms":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	n := valueEnd(rest)
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:n])), 64)
	return v, err == nil
}

// kernelEyes caps how many of a workload's eyes the traced run solves
// directly through the kernel.
const kernelEyes = 12

// runTraced measures the per-layer metrics. It first replays the request
// list untraced for half the time (the throughput baseline of the tracing
// overhead, and the GC figures), then traced for the other half, and
// finally times the perspective transform and the kernel solve directly on
// the workload's own eyes.
func runTraced(c *client, srv *terrainhsr.Server, in *inputs, reqs []*http.Request, refs []refDigest,
	seconds float64, workers int, out *outcome) (*outcome, error) {
	base, err := c.timed(srv, reqs, refs, seconds/2, nil)
	if err != nil {
		return nil, err
	}
	// The program traces any request carrying the fleet's trace header;
	// a one-trace ring holds exactly the request just served.
	tracer := terrainhsr.NewTracer(0, 1)
	col := &collector{start: time.Now(), tracer: tracer, viewshed: strings.HasPrefix(in.requests[0], "/viewshed")}
	treqs, err := buildRequests(in.requests, "hsrperf")
	if err != nil {
		return nil, err
	}
	ct := newClient(serve.New(srv, serve.Options{Logger: quietLogger, Tracer: tracer}))
	p, err := ct.timed(srv, treqs, refs, seconds/2, col.observe)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = base.n()+p.n(), base.failed+p.failed

	perReq := func(f func(r tracedReq) float64) []float64 {
		xs := make([]float64, len(col.reqs))
		for i, r := range col.reqs {
			xs[i] = f(r)
		}
		return xs
	}
	selfP50 := func(layer string, unit time.Duration) float64 {
		return quantile(perReq(func(r tracedReq) float64 { return float64(r.self[layer]) / float64(unit) }), 0.5)
	}
	mean := func(f func(r tracedReq) float64) float64 {
		s := 0.0
		for _, x := range perReq(f) {
			s += x
		}
		return s / float64(len(col.reqs))
	}
	costOf := func(f func(c *terrainhsr.CostLedger) int64) func(r tracedReq) float64 {
		return func(r tracedReq) float64 {
			if r.cost == nil {
				return 0
			}
			return float64(f(r.cost))
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	n := float64(p.n())
	st := func(f func(s terrainhsr.ServerStats) int64) float64 { return float64(f(p.st1) - f(p.st0)) }

	out.set("serve.self_ms_p50", "ms", selfP50("serve", time.Millisecond))
	out.set("serve.resp_kb", "KiB", float64(p.bytes)/n/1024)
	hits := st(func(s terrainhsr.ServerStats) int64 { return s.Hits })
	looked := hits + st(func(s terrainhsr.ServerStats) int64 { return s.Misses + s.Coalesced })
	out.set("cache.hit_ratio", "ratio", ratio(hits, looked))
	out.set("cache.lookup_us_p50", "us", selfP50("cache", time.Microsecond))
	out.set("query.self_us_p50", "us", selfP50("query", time.Microsecond))
	out.set("engine.plan_us_p50", "us", selfP50("engine", time.Microsecond))
	out.set("tile.solve_ms_p50", "ms", selfP50("tile", time.Millisecond))
	out.set("tile.merge_ms_p50", "ms", selfP50("tile.merge", time.Millisecond))
	solved := mean(func(r tracedReq) float64 { return float64(r.solved) })
	culled := mean(func(r tracedReq) float64 { return float64(r.culled) })
	out.set("tile.tiles_solved", "count", solved)
	out.set("tile.tiles_culled", "count", culled)
	out.set("tile.cull_ratio", "ratio", ratio(culled, solved+culled))
	out.set("store.page_wait_ms_p50", "ms", selfP50("store", time.Millisecond))
	paged := mean(costOf(func(c *terrainhsr.CostLedger) int64 { return c.BytesPaged }))
	out.set("store.bytes_paged_kb", "KiB", paged/1024)
	out.set("store.page_ins", "count", mean(costOf(func(c *terrainhsr.CostLedger) int64 { return c.PageIns })))
	out.set("store.read_fraction", "ratio", ratio(paged, float64(in.levelBytes)))
	frames := st(func(s terrainhsr.ServerStats) int64 { return s.SessionFrames })
	out.set("session.replay_ratio", "ratio", ratio(st(func(s terrainhsr.ServerStats) int64 { return s.SessionReplays }), frames))
	reused := st(func(s terrainhsr.ServerStats) int64 { return s.TilesReused })
	out.set("session.reuse_rate", "ratio", ratio(reused, reused+st(func(s terrainhsr.ServerStats) int64 { return s.TilesResolved })))
	out.set("session.verify_failures", "count", st(func(s terrainhsr.ServerStats) int64 { return s.VerifyFailures }))

	if err := col.direct(in, workers, out); err != nil {
		return nil, err
	}

	gcCycles := float64(base.rt1.gcCycles - base.rt0.gcCycles)
	out.set("gc.cycles_per_req", "count", gcCycles/float64(base.n()))
	out.set("gc.cpu_fraction", "ratio", ratio(base.rt1.gcCPU-base.rt0.gcCPU, base.rt1.totalCPU-base.rt0.totalCPU))
	out.set("unattributed_ms_p50", "ms", quantile(perReq(func(r tracedReq) float64 {
		d := r.latency.Nanoseconds()
		for _, v := range r.self {
			d -= v
		}
		return float64(d) / 1e6
	}), 0.5))
	untraced := median(base.passCPURPS)
	out.set("obs.trace_overhead_pct", "%", 100*(untraced-median(p.passCPURPS))/untraced)

	// The self-time table: each layer's median and its share of all
	// traced request time.
	var total int64
	for _, r := range col.reqs {
		total += r.latency.Nanoseconds()
	}
	table := map[string]any{}
	for _, l := range layers {
		var sum int64
		for _, r := range col.reqs {
			sum += r.self[l]
		}
		table[l] = map[string]float64{"p50_ms": selfP50(l, time.Millisecond), "share": float64(sum) / float64(total)}
	}
	out.info["self_time"] = table
	out.info["timed_requests"] = p.n()
	out.info["untraced_requests"] = base.n()
	out.spans = col.spans
	return out, nil
}

// direct times the terrain transform and the kernel solve as a library
// user calls them — Terrain.FromPerspective, then terrainhsr.Solve — on up
// to kernelEyes of the workload's eyes, and records the kernel's exact
// output size and charged work.
func (c *collector) direct(in *inputs, workers int, out *outcome) error {
	eyes := in.eyes
	if len(eyes) > kernelEyes {
		eyes = eyes[:kernelEyes]
	}
	var transform, solve []float64
	var work, nk, k int64
	for i, e := range eyes {
		t0 := time.Now()
		pt, err := in.terrain.FromPerspective(e, 0)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("transform eye %v: %w", e, err)
		}
		res, err := terrainhsr.Solve(pt, terrainhsr.Options{Workers: workers})
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("solve eye %v: %w", e, err)
		}
		c.add(span{Req: -1 - i, Name: "terrain", Start: c.ns(t0), End: c.ns(t1)})
		c.add(span{Req: -1 - i, Name: "kernel", Start: c.ns(t1), End: c.ns(t2)})
		transform = append(transform, t1.Sub(t0).Seconds()*1e3)
		solve = append(solve, t2.Sub(t1).Seconds()*1e3)
		work += res.Work()
		nk += int64(res.N() + res.K())
		k += int64(res.K())
	}
	out.set("kernel.solve_ms_p50", "ms", quantile(solve, 0.5))
	out.set("kernel.work_per_nk", "ops", float64(work)/float64(nk))
	out.set("kernel.k", "count", float64(k)/float64(len(eyes)))
	out.set("terrain.transform_ms_p50", "ms", quantile(transform, 0.5))
	return nil
}

// writeSpans writes the run's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
