// Command hsrrouter fronts a fleet of hsrserved replicas: it places each
// /viewshed query on a replica by consistent-hashing the terrain id
// (huge terrains shard further by resolution-level band), hedges slow
// requests onto the next replica in ring order, fails over transparently
// on replica errors, probes replica health and ejects/readmits members,
// and serves a fleet-wide /statsz that sums every replica's counters and
// merges their stage latency histograms.
//
//	hsrrouter -addr :8100 \
//	    -replica http://127.0.0.1:8101 \
//	    -replica http://127.0.0.1:8102 \
//	    -replica http://127.0.0.1:8103 \
//	    -hedge-after 250ms -probe-interval 2s -eject-after 3
//
// Every replica must serve the same terrain set (same -terrain/-store
// flags): the router guarantees which replica answers never changes what
// is answered. /fleetz reports the router's own view — per-replica
// health and membership state, routing counters, the hash ring, and the
// per-key placement and serve counts.
//
// Membership is dynamic: with -admin-token set, POST /adminz/add and
// /adminz/remove admit and drain replicas at runtime (warm-up before
// traffic, drain-before-remove; see docs/API.md for the contract), and
// GET /adminz/membership reports the member table. -replicate terrain=R
// spreads a hot terrain's keys across its first R ring successors:
//
//	hsrrouter -addr :8100 -replica http://127.0.0.1:8101 ... \
//	    -admin-token s3cret -replicate alps=2 -drain-timeout 10s
//
// The router is also the fleet's observability head (see
// docs/OBSERVABILITY.md): -trace-sample N traces one routed query in
// every N — the trace ID propagates to every attempted replica, each
// hedge attempt becomes a child span with winner/loser attribution, and
// the winning replica's own spans are grafted in — served on GET /tracez.
// GET /metricsz renders the router's own latency series (request and
// attempt) merged with the replicas' histograms — the "Stages" of the
// same replica /statsz documents the fleet rollup reads — as one
// Prometheus text exposition. Hedge-loser latencies appear on /fleetz under
// attempt_latency. -pprof-addr starts net/http/pprof on a separate
// private listener; -log-level sets the slog level.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers the pprof handlers on DefaultServeMux, served only on -pprof-addr
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"terrainhsr/internal/fleet"
	"terrainhsr/internal/obs"
)

// replicaList collects repeatable -replica flags.
type replicaList []string

// String renders the collected replica URLs for flag's usage output.
func (r *replicaList) String() string { return strings.Join(*r, "; ") }

// Set appends one replica base URL.
func (r *replicaList) Set(v string) error {
	*r = append(*r, strings.TrimRight(v, "/"))
	return nil
}

// replicationMap collects repeatable -replicate terrain=R flags.
type replicationMap map[string]int

// String renders the map for flag's usage output.
func (m *replicationMap) String() string {
	var parts []string
	for t, r := range *m {
		parts = append(parts, fmt.Sprintf("%s=%d", t, r))
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}

// Set parses one terrain=R pair.
func (m *replicationMap) Set(v string) error {
	terrain, rStr, ok := strings.Cut(v, "=")
	if !ok || terrain == "" {
		return fmt.Errorf("replication %q: want terrain=R", v)
	}
	r, err := strconv.Atoi(rStr)
	if err != nil || r < 1 {
		return fmt.Errorf("replication %q: factor must be an integer >= 1", v)
	}
	if *m == nil {
		*m = make(map[string]int)
	}
	(*m)[terrain] = r
	return nil
}

// newLogger builds the process logger at the requested level.
func newLogger(level string) *slog.Logger {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		lv = slog.LevelInfo
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))
}

// startPprof serves net/http/pprof on its own listener when addr is set,
// keeping profiling off the routed service port.
func startPprof(addr string, lg *slog.Logger) {
	if addr == "" {
		return
	}
	go func() {
		lg.Info("pprof listening", slog.String("addr", addr))
		// pprof registered itself on http.DefaultServeMux at import.
		if err := http.ListenAndServe(addr, nil); err != nil {
			lg.Error("pprof listener failed", slog.Any("err", err))
		}
	}()
}

func main() {
	var replicas replicaList
	addr := flag.String("addr", ":8100", "listen address")
	flag.Var(&replicas, "replica", "replica base URL (repeatable), e.g. http://127.0.0.1:8101")
	hedgeAfter := flag.Duration("hedge-after", 250*time.Millisecond, "hedge a request onto the next replica after this delay (negative disables)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "health-probe period (negative disables probing)")
	ejectAfter := flag.Int("eject-after", 3, "consecutive failures before a replica is ejected")
	hugeVertices := flag.Int("huge-vertices", 1<<20, "finest-level vertex count above which a terrain shards per level band (negative disables)")
	vnodes := flag.Int("vnodes", fleet.DefaultVNodes, "virtual nodes per replica on the hash ring")
	adminToken := flag.String("admin-token", "", "token authenticating /adminz membership changes (empty disables the admin surface)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long /adminz/remove waits for a draining replica's in-flight requests")
	warmupRequests := flag.Int("warmup-requests", 64, "max recorded hot queries replayed to warm a joining replica (negative disables warm-up)")
	traceSample := flag.Int("trace-sample", 0, "trace one routed query in every N, propagating the ID to the replicas (0 = only client-propagated X-HSR-Trace requests)")
	traceRing := flag.Int("trace-ring", 64, "finished traces kept for /tracez")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	logLevel := flag.String("log-level", "info", "slog level: debug, info, warn, error")
	var replication replicationMap
	flag.Var(&replication, "replicate", "terrain=R replication factor (repeatable): spread the terrain's keys across its first R ring successors")
	flag.Parse()

	lg := newLogger(*logLevel).With(slog.String("component", "hsrrouter"))
	if len(replicas) == 0 {
		lg.Error("at least one -replica is required")
		os.Exit(1)
	}
	rt, err := fleet.New(fleet.Options{
		Replicas:       replicas,
		HedgeAfter:     *hedgeAfter,
		ProbeInterval:  *probeInterval,
		EjectAfter:     *ejectAfter,
		HugeVertices:   *hugeVertices,
		VNodes:         *vnodes,
		AdminToken:     *adminToken,
		DrainTimeout:   *drainTimeout,
		WarmupRequests: *warmupRequests,
		Replication:    replication,
		Tracer:         obs.NewTracer(*traceSample, *traceRing),
		Logf: func(format string, args ...any) {
			lg.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		lg.Error("router construction failed", slog.Any("err", err))
		os.Exit(1)
	}
	rt.Start()
	defer rt.Close()
	startPprof(*pprofAddr, lg)
	lg.Info("routing", slog.Int("replicas", len(replicas)),
		slog.String("addr", *addr), slog.Duration("hedge_after", *hedgeAfter))
	if err := http.ListenAndServe(*addr, rt); err != nil {
		lg.Error("listener failed", slog.Any("err", err))
		os.Exit(1)
	}
}
