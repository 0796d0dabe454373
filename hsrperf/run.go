package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	terrainhsr "terrainhsr"
	"terrainhsr/internal/serve"
)

// minTimed is the fewest timed requests a phase may hold, so that at least
// minBeyond samples lie beyond cpu_p90_ms.
const minTimed = 100

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

func (r *recorder) reset() {
	if r.hdr == nil {
		r.hdr = make(http.Header)
	}
	clear(r.hdr)
	r.code = 0
	r.body.Reset()
}

// client is the closed loop's single client: it hands one request to the
// handler in-process, with no socket, and waits for the whole response
// before sending the next.
type client struct {
	h   http.Handler
	rec recorder
	// hsh digests normalized bodies with the process's digestSeed, so
	// every client's digests compare with the references.
	hsh maphash.Hash
}

// digestSeed seeds every client's body digests. It is random per process,
// like the references the digests are compared with.
var digestSeed = maphash.MakeSeed()

func newClient(h http.Handler) *client {
	c := &client{h: h}
	c.hsh.SetSeed(digestSeed)
	return c
}

// do serves one request. It returns the request's latency as the client
// sees it — from dispatch, including resetting the response writer, to the
// complete response — on the wall clock and on the process CPU clock, and
// the wall-clock interval of the ServeHTTP call within it.
func (c *client) do(req *http.Request) (wall, cpu time.Duration, serveStart, serveEnd time.Time) {
	t0, c0 := time.Now(), cpuNow()
	c.rec.reset()
	serveStart = time.Now()
	c.h.ServeHTTP(&c.rec, req)
	serveEnd = time.Now()
	return serveEnd.Sub(t0), cpuNow() - c0, serveStart, serveEnd
}

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// readCPUClock reads the process CPU clock: the time all of the process's
// threads have spent running, to the nanosecond.
func readCPUClock() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("read the process CPU clock: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// cpuNow is readCPUClock for hot paths; run checks the clock works before
// anything is timed, and it cannot start failing afterwards.
func cpuNow() time.Duration {
	d, _ := readCPUClock()
	return d
}

// digest hashes the last response's normalized body.
func (c *client) digest() uint64 {
	c.hsh.Reset()
	normalize(&c.hsh, c.rec.body.Bytes())
	return c.hsh.Sum64()
}

// rtSnap is a point-in-time read of the Go runtime's counters.
type rtSnap struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// procStatusKB reads one kB-valued field of /proc/self/status.
func procStatusKB(field string) (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) at the current
// RSS, so the next read covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// phase is one timed pass series over the request list.
type phase struct {
	lat        []float64 // per-request wall-clock latency, ms
	cpu        []float64 // per-request process CPU time, ms
	passRPS    []float64 // each pass's requests per wall-clock second of serving
	passCPURPS []float64 // each pass's requests per CPU second of serving
	passPeakMB []float64 // each pass's peak RSS
	busy       time.Duration
	failed     int
	bytes      int64
	rt0, rt1   rtSnap
	st0, st1   terrainhsr.ServerStats
}

func (p *phase) n() int { return len(p.lat) }

// timed replays whole passes of reqs until at least seconds of wall-clock
// serving time are spent and minTimed requests were sent. Throughput and
// peak RSS are taken per pass, so the run can report the median pass, which
// an unlucky GC moves less. Every response is checked against its
// reference digest: a non-200 status or a mismatch is a failure. observe,
// when set, sees each request after its check.
func (c *client) timed(srv *terrainhsr.Server, reqs []*http.Request, refs []refDigest, seconds float64,
	observe func(lat time.Duration, serveStart, serveEnd time.Time, body []byte)) (*phase, error) {
	p := &phase{}
	// Start every phase from the same footing: a collected heap whose free
	// pages went back to the OS, so the peak-RSS mark measures the phase.
	debug.FreeOSMemory()
	p.st0, p.rt0 = srv.Stats(), readRuntime()
	limit := time.Duration(seconds * float64(time.Second))
	for p.busy < limit || p.n() < minTimed {
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("reset peak RSS: %w", err)
		}
		passStart := p.busy
		var passCPU time.Duration
		for i, req := range reqs {
			lat, cpu, ss, se := c.do(req)
			p.busy += lat
			passCPU += cpu
			p.lat = append(p.lat, float64(lat)/float64(time.Millisecond))
			p.cpu = append(p.cpu, float64(cpu)/float64(time.Millisecond))
			p.bytes += int64(c.rec.body.Len())
			if c.rec.code != http.StatusOK || !refs[i].ok || c.digest() != refs[i].sum {
				p.failed++
			}
			if observe != nil {
				observe(lat, ss, se, c.rec.body.Bytes())
			}
		}
		p.passRPS = append(p.passRPS, float64(len(reqs))/(p.busy-passStart).Seconds())
		p.passCPURPS = append(p.passCPURPS, float64(len(reqs))/passCPU.Seconds())
		peak, err := procStatusKB("VmHWM")
		if err != nil {
			return nil, err
		}
		p.passPeakMB = append(p.passPeakMB, float64(peak)*1024/1e6)
	}
	p.rt1, p.st1 = readRuntime(), srv.Stats()
	return p, nil
}

// refDigest is one request's reference: the digest of its normalized
// warm-up body, valid only if that body matched the library reference.
type refDigest struct {
	sum uint64
	ok  bool
}

// warmUp sends every request once, untimed, and pins each response as the
// reference after checking its pieces against the independent library
// solve. The pass also settles lazy state (level executors, pagers, code
// paths) before anything is timed.
func (c *client) warmUp(reqs []*http.Request, reference func(int, []byte) error, log io.Writer) []refDigest {
	refs := make([]refDigest, len(reqs))
	for i, req := range reqs {
		c.do(req)
		if c.rec.code != http.StatusOK {
			fmt.Fprintf(log, "hsrperf: warm-up request %d: status %d: %s\n", i, c.rec.code, strings.TrimSpace(c.rec.body.String()))
			continue
		}
		if err := reference(i, c.rec.body.Bytes()); err != nil {
			fmt.Fprintf(log, "hsrperf: request %d differs from the library reference: %v\n", i, err)
			continue
		}
		refs[i] = refDigest{sum: c.digest(), ok: true}
	}
	return refs
}

// quietLogger discards the handler's logs: the benchmark reports its own.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))

// buildRequests makes one reusable GET request per URL. A non-empty
// traceID asks the serving layer to trace the request (the header the
// fleet router propagates).
func buildRequests(urls []string, traceID string) ([]*http.Request, error) {
	out := make([]*http.Request, len(urls))
	for i, u := range urls {
		req, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			return nil, err
		}
		if traceID != "" {
			req.Header.Set("X-HSR-Trace", traceID)
		}
		out[i] = req
	}
	return out, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	// order lists metrics in report order.
	order []string
	// info holds run facts that are not metrics (request counts, tail
	// percentile, self-time table).
	info map[string]any
	// spans are the traced run's spans.
	spans []span
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	if _, dup := o.metrics[name]; !dup {
		o.order = append(o.order, name)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// run prepares a workload from its seed, sets it up, warms it up and
// measures it: end-to-end metrics untraced, or the per-layer metrics of a
// traced run.
func run(w workload, seed int64, seconds float64, traced bool, dir string, log io.Writer) (*outcome, error) {
	workers := w.workers()
	t0 := time.Now()
	in, err := w.prepare(seed, dir, workers)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", w.name, err)
	}
	prepared := time.Since(t0).Seconds()
	var srv *terrainhsr.Server
	setups := make([]float64, w.setups)
	if _, err := readCPUClock(); err != nil {
		return nil, err
	}
	for k := range setups {
		srv = nil
		runtime.GC()
		c0 := cpuNow()
		s, err := in.setup()
		setups[k] = (cpuNow() - c0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", w.name, err)
		}
		srv = s
	}

	reqs, err := buildRequests(in.requests, "")
	if err != nil {
		return nil, err
	}
	c := newClient(serve.New(srv, serve.Options{Logger: quietLogger}))
	prime, err := buildRequests(in.prime, "")
	if err != nil {
		return nil, err
	}
	for _, req := range prime {
		if c.do(req); c.rec.code != http.StatusOK {
			return nil, fmt.Errorf("prime request: status %d", c.rec.code)
		}
	}
	t0 = time.Now()
	refs := c.warmUp(reqs, in.reference, log)

	out := &outcome{info: map[string]any{
		"workers":      workers,
		"request_list": len(reqs),
		"setup_runs_s": setups,
		"prepare_s":    prepared,
		"warmup_s":     time.Since(t0).Seconds(),
	}}
	if !traced {
		p, err := c.timed(srv, reqs, refs, seconds, nil)
		if err != nil {
			return nil, err
		}
		n := p.n()
		out.attempted, out.failed = n, p.failed
		out.set("req_per_cpu_s", "1/s", median(p.passCPURPS))
		out.set("cpu_p50_ms", "ms", quantile(p.cpu, 0.50))
		out.set("cpu_p90_ms", "ms", quantile(p.cpu, 0.90))
		out.set("alloc_mb_per_req", "MB", float64(p.rt1.allocBytes-p.rt0.allocBytes)/float64(n)/1e6)
		out.set("peak_rss_mb", "MB", median(p.passPeakMB))
		out.set("success_rate", "ratio", 1-float64(p.failed)/float64(n))
		out.set("setup_s", "s", median(setups))
		out.info["timed_requests"] = n
		out.info["passes"] = len(p.passRPS)
		// The wall-clock figures, for the record: on a shared VM they move
		// with the hypervisor's steal, so they carry no bound.
		out.info["wall_throughput_rps"] = median(p.passRPS)
		out.info["wall_latency_p50_ms"] = quantile(p.lat, 0.50)
		out.info["wall_latency_p90_ms"] = quantile(p.lat, 0.90)
		out.info["error_rate"] = float64(p.failed) / float64(n)
		// minTimed guarantees this is at least 90, the p90 reported.
		out.info["tail_percentile"] = tailPercentile(n)
		return out, nil
	}
	return runTraced(c, srv, in, reqs, refs, seconds, workers, out)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
