package loadgen

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/workload"
)

// Request is one prepared query: the absolute URL to fetch and the
// identity key under which its normalized body must be stable.
type Request struct {
	URL string
	Key string
}

// NamedTerrain pairs a registered terrain ID with the terrain itself —
// the generator derives eye points from the terrain's bounding box, so
// the caller regenerates (or loads) the same terrains the replicas serve.
type NamedTerrain struct {
	ID string
	T  *terrain.Terrain
}

// ScenarioOptions configures Scenario.
type ScenarioOptions struct {
	// BaseURL is the target prefix, e.g. "http://127.0.0.1:8100".
	BaseURL string
	// Terrains are the registered terrains traffic draws from.
	Terrains []NamedTerrain
	// GridRows x GridCols is the per-terrain observer grid (default 3x4).
	GridRows, GridCols int
	// FlyoverFrames is the per-terrain flyover path length (default 8).
	FlyoverFrames int
	// Mix selects the stream shape: "grid" (observer-grid stream),
	// "flyover" (per-eye /viewshed queries walking the path in order),
	// "session" (short frame-coherent /flyover legs: each draw flies the
	// terrain's next two waypoints interpolated to four frames, so the
	// server's session machinery carries state between frames), or "mixed"
	// (default: 70% grid draws, 30% flyover steps).
	Mix string
	// ZipfS is the terrain-popularity skew exponent (> 1; default 1.2).
	// Higher values concentrate traffic on fewer hot terrains.
	ZipfS float64
	// Count is the number of queries drawn (default 256).
	Count int
	// Seed makes the draw reproducible.
	Seed int64
	// Algorithm optionally pins the solver (default: server default).
	Algorithm string
	// NoCache adds nocache=1 to every query (uncached leg).
	NoCache bool
}

// Scenario draws a query stream: each draw picks a terrain from a zipf
// distribution over the configured terrains (index 0 hottest) and either
// an observer-grid eye (uniform) or the terrain's next flyover frame
// (sessions walk their path in order, wrapping). The same options and
// seed always produce the same stream, so two serving legs can replay
// identical traffic.
func Scenario(o ScenarioOptions) ([]Request, error) {
	if len(o.Terrains) == 0 {
		return nil, fmt.Errorf("loadgen: scenario needs at least one terrain")
	}
	if o.GridRows <= 0 {
		o.GridRows = 3
	}
	if o.GridCols <= 0 {
		o.GridCols = 4
	}
	if o.FlyoverFrames <= 0 {
		o.FlyoverFrames = 8
	}
	if o.ZipfS <= 1 {
		o.ZipfS = 1.2
	}
	if o.Count <= 0 {
		o.Count = 256
	}
	if o.Mix == "" {
		o.Mix = "mixed"
	}
	type pool struct {
		grid, fly []geom.Pt3
		cursor    int
	}
	pools := make([]pool, len(o.Terrains))
	for i, nt := range o.Terrains {
		grid, err := workload.ObserverGrid(nt.T, workload.ObserverGridParams{Rows: o.GridRows, Cols: o.GridCols})
		if err != nil {
			return nil, fmt.Errorf("loadgen: observer grid for %q: %w", nt.ID, err)
		}
		fly, err := workload.FlyoverPath(nt.T, workload.FlyoverParams{Frames: o.FlyoverFrames})
		if err != nil {
			return nil, fmt.Errorf("loadgen: flyover for %q: %w", nt.ID, err)
		}
		pools[i] = pool{grid: grid, fly: fly}
	}
	r := rand.New(rand.NewSource(o.Seed))
	zipf := rand.NewZipf(r, o.ZipfS, 1, uint64(len(o.Terrains)-1))
	out := make([]Request, 0, o.Count)
	for q := 0; q < o.Count; q++ {
		ti := int(zipf.Uint64())
		p := &pools[ti]
		id := o.Terrains[ti].ID
		if o.Mix == "session" {
			// One short frame-coherent leg: the terrain's next two waypoints
			// flown as four interpolated frames through /flyover. The leg is
			// its own session on the server side, so repeats of the same leg
			// hit the replay fast path while the answer bytes stay fixed.
			a := p.fly[p.cursor%len(p.fly)]
			b := p.fly[(p.cursor+1)%len(p.fly)]
			p.cursor++
			url := o.BaseURL + "/flyover?terrain=" + id +
				"&eye=" + fmtEye(a) + "&eye=" + fmtEye(b) + "&frames=4"
			key := id + "|fly|" + fmtEye(a) + "|" + fmtEye(b)
			if o.Algorithm != "" {
				url += "&algorithm=" + o.Algorithm
				key += "|" + o.Algorithm
			}
			out = append(out, Request{URL: url, Key: key})
			continue
		}
		var eye geom.Pt3
		switch {
		case o.Mix == "grid" || (o.Mix == "mixed" && r.Float64() < 0.7):
			eye = p.grid[r.Intn(len(p.grid))]
		default:
			eye = p.fly[p.cursor%len(p.fly)]
			p.cursor++
		}
		url := o.BaseURL + "/viewshed?terrain=" + id + "&eye=" + fmtEye(eye)
		key := id + "|" + fmtEye(eye)
		if o.Algorithm != "" {
			url += "&algorithm=" + o.Algorithm
			key += "|" + o.Algorithm
		}
		if o.NoCache {
			url += "&nocache=1"
		}
		out = append(out, Request{URL: url, Key: key})
	}
	return out, nil
}

// fmtEye renders an eye point as the x,y,z query parameter, with full
// float precision so equal eyes always produce equal URLs.
func fmtEye(p geom.Pt3) string {
	return strconv.FormatFloat(p.X, 'g', -1, 64) + "," +
		strconv.FormatFloat(p.Y, 'g', -1, 64) + "," +
		strconv.FormatFloat(p.Z, 'g', -1, 64)
}

// Options configures Run.
type Options struct {
	// Workers is the number of concurrent clients (default 4).
	Workers int
	// Repeats replays the request sequence this many times (default 1) —
	// the steady-state traffic loop, where caches are warm and the
	// percentiles are meaningful.
	Repeats int
	// Timeout bounds each request (default 60s).
	Timeout time.Duration
	// CheckBodies verifies response identity: the normalized body of
	// every response must hash identically per request key.
	CheckBodies bool
	// Client issues the requests (default: a fresh client with Timeout).
	Client *http.Client
	// Actions are scripted mid-run hooks — the soak harness's churn
	// script. Each fires exactly once, in the worker that completes the
	// AfterRequest-th request; the hook runs synchronously there (one
	// worker pauses, the others keep the load up), which is exactly the
	// shape of an operator driving membership changes under live traffic.
	Actions []Action
}

// Action is one scripted mid-run hook (see Options.Actions).
type Action struct {
	// AfterRequest is how many requests must have completed before the
	// hook fires (0 fires before the first completion is even possible,
	// i.e. on the first completion).
	AfterRequest int
	// Run is the hook. It may block; load continues on the other workers.
	Run func()
}

// Report is the outcome of one Run.
type Report struct {
	// Requests and Errors count issued requests and failures (transport
	// errors and non-2xx statuses).
	Requests, Errors int
	// Wall is the whole run's duration; QPS is Requests/Wall.
	Wall time.Duration
	QPS  float64
	// P50/P90/P99/Max summarize per-request latency.
	P50, P90, P99, Max time.Duration
	// BodyBytes is the total response volume read.
	BodyBytes int64
	// Mismatches counts responses whose normalized body differed from the
	// first-seen body of their key (0 when CheckBodies is off).
	Mismatches int
	// Hashes maps each request key to its first-seen normalized body hash
	// (nil when CheckBodies is off) — compare maps across legs to assert
	// two serving configurations answer identically.
	Hashes map[string]uint64
	// ErrorSamples holds up to five error messages for diagnosis.
	ErrorSamples []string
}

// volatileFields matches the response fields that legitimately vary
// between byte-identical answers: the serving wall clock, the cache
// outcome (hit vs miss vs coalesced vs bypass vs session), the per-query
// cost ledger (a hit's ledger has no solve time, a miss's does — where the
// time went is per answer, never part of what was answered), and a flyover
// frame's reuse ledger (whether a frame replayed or how many tile verdicts
// it reused depends on what the serving session happened to remember —
// never on the pieces it answered). Everything else — terrain, eyes, plan,
// level, n, k, and every piece byte — must be stable, and the identity
// check hashes it. The cost object never nests further objects, so the
// brace match is safe.
var volatileFields = regexp.MustCompile(
	`"(elapsed_ms)": [0-9.eE+-]+|"(cache)": "[a-z]+"|"(replayed)": (?:true|false)` +
		`|"(tiles_reused|tiles_reverified|tiles_resolved|verify_failures)": [0-9]+` +
		`|"(cost)": \{[^{}]*\}`)

// NormalizeBody zeroes the volatile response fields; the rest of the body
// is the query's identity.
func NormalizeBody(b []byte) []byte {
	return volatileFields.ReplaceAll(b, []byte(`"$1$2$3$4$5": 0`))
}

// HashBody hashes a normalized body (FNV-1a).
func HashBody(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Run replays the request sequence Repeats times across Workers
// concurrent clients and reports throughput, latency percentiles, errors
// and (optionally) body identity. The sequence order is preserved in the
// work queue — workers interleave, as concurrent users do, but the load
// pattern stays the configured one.
func Run(o Options, reqs []Request) Report {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Repeats <= 0 {
		o.Repeats = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	client := o.Client
	if client == nil {
		client = &http.Client{Timeout: o.Timeout}
	}
	total := len(reqs) * o.Repeats
	latencies := make([]time.Duration, total)
	errs := make([]error, total)
	var bodyBytes atomic.Int64

	var mu sync.Mutex // guards hashes, mismatches, samples
	var hashes map[string]uint64
	if o.CheckBodies {
		hashes = make(map[string]uint64)
	}
	mismatches := 0
	var samples []string

	type pendingAction struct {
		after int64
		once  sync.Once
		run   func()
	}
	actions := make([]*pendingAction, len(o.Actions))
	for i, a := range o.Actions {
		actions[i] = &pendingAction{after: int64(a.AfterRequest), run: a.Run}
	}

	var next, completed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				req := reqs[i%len(reqs)]
				q0 := time.Now()
				resp, err := client.Get(req.URL)
				if err == nil {
					var body []byte
					if o.CheckBodies {
						body, err = io.ReadAll(resp.Body)
					} else {
						var n int64
						n, err = io.Copy(io.Discard, resp.Body)
						bodyBytes.Add(n)
					}
					resp.Body.Close()
					if err == nil && resp.StatusCode/100 != 2 {
						err = fmt.Errorf("%s: status %s", req.URL, resp.Status)
					}
					if err == nil && o.CheckBodies {
						bodyBytes.Add(int64(len(body)))
						h := HashBody(NormalizeBody(body))
						mu.Lock()
						if prev, seen := hashes[req.Key]; !seen {
							hashes[req.Key] = h
						} else if prev != h {
							mismatches++
						}
						mu.Unlock()
					}
				}
				latencies[i] = time.Since(q0)
				if err != nil {
					errs[i] = err
				}
				done := completed.Add(1)
				for _, a := range actions {
					if done >= a.after {
						a.once.Do(a.run)
					}
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)

	rep := Report{Requests: total, Wall: wall, BodyBytes: bodyBytes.Load(),
		Mismatches: mismatches, Hashes: hashes}
	for _, err := range errs {
		if err != nil {
			rep.Errors++
			if len(samples) < 5 {
				samples = append(samples, err.Error())
			}
		}
	}
	rep.ErrorSamples = samples
	if wall > 0 {
		rep.QPS = float64(total) / wall.Seconds()
	}
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if len(sorted) > 0 {
		rep.P50 = percentile(sorted, 0.50)
		rep.P90 = percentile(sorted, 0.90)
		rep.P99 = percentile(sorted, 0.99)
		rep.Max = sorted[len(sorted)-1]
	}
	return rep
}

// percentile reads the p-quantile from an ascending latency slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
