// Command hsrserved is the HTTP front end of the viewshed query service:
// it registers synthetic terrains with a terrainhsr.Server and answers
// viewshed queries through its sharded, coalescing result cache. One
// binary, no dependencies beyond the standard library. The handler itself
// lives in internal/serve, so the fleet tier (cmd/hsrrouter,
// internal/fleet) and the in-process experiments serve byte-identical
// responses; hsrserved is one replica of a fleet, or the whole service on
// its own.
//
// Usage:
//
//	hsrserved [-addr :8080] [-terrain spec]... [-store spec]...
//	          [-resolution 0.25] [-cache 1024] [-workers 0]
//	          [-tile-cells 262144] [-residency-budget 0]
//	          [-trace-sample 0] [-trace-ring 64] [-slow-query 0]
//	          [-pprof-addr ""] [-log-level info]
//
// Each -terrain flag registers one synthetic terrain; the spec is a
// comma-separated key=value list with the keys of terrainhsr.GenParams:
//
//	-terrain id=alps,kind=massive,rows=256,cols=256,seed=17
//
// Each -store flag registers an on-disk LOD terrain store built by
// cmd/hsrstore (or terrainhsr.BuildStore):
//
//	-store id=alps,path=/data/alps.store
//
// Store terrains serve level-of-detail queries: pyramid levels page in
// lazily from tile files the first time traffic routes to them, the budget
// parameter picks the answering level, and progressive responses stream a
// conservative coarse preview before the exact answer. With
// -residency-budget N (MiB), levels whose estimated in-core size exceeds
// the budget solve out-of-core instead of assembling: the tiled solver
// pages tile files band by band, answers stay byte-identical, and /statsz
// reports resident bytes and page-ins per store (size the budget against
// "hsrstore -info"). With no -terrain or -store flag a default "demo"
// terrain (fractal 48x48) is registered so the server is immediately
// queryable.
//
// Endpoints:
//
//	GET /healthz   liveness probe; responds "ok".
//	GET /statsz    JSON ServerStats: hits, misses, coalesced, evictions,
//	               solves, cache entries, per-level LOD query counters,
//	               store bytes loaded, resident bytes, tile page-ins and
//	               the stage latency histograms ("Stages") — the one
//	               document a router fetches and merges.
//	GET /terrains  JSON list of registered terrains and their sizes
//	               (manifest-derived for stores; listing never pages tiles).
//	GET /viewshed  answer a viewshed query; parameters below.
//	GET /flyover   answer a camera path as one frame-coherent session;
//	               parameters below.
//	GET /tracez    JSON ring of sampled query traces. -trace-sample
//	               enables local sampling; requests arriving with an
//	               X-HSR-Trace header are always traced. Filters:
//	               terrain=, id=, min_ms=, limit=.
//	GET /metricsz  the same per-stage, per-plan-mode latency histograms:
//	               Prometheus text by default, the JSON snapshot with
//	               ?format=json. See docs/OBSERVABILITY.md.
//
// Observability flags: -trace-sample N traces one query in every N (0
// only honors propagated trace IDs), -trace-ring caps the /tracez ring,
// -slow-query D logs queries at least D slow at Warn level with their plan
// and cost ledger, -pprof-addr starts net/http/pprof on a separate
// listener (off by default; keep it private), and -log-level sets the
// slog level (debug logs every query). Tracing and metrics never change
// answers: solve bytes are byte-identical with them on or off.
//
// /viewshed parameters:
//
//	terrain      terrain ID (may be omitted when exactly one is registered)
//	eye          "x,y,z" perspective eye point (required); repeat the
//	             parameter (eye=...&eye=...) for a multi-eye batch query
//	             of at most 4096 eyes, answered with a JSON summary only
//	algorithm    solver name (default "parallel"; see /terrains for the
//	             served list — the quadratic baselines brute-force and
//	             all-pairs get a 400)
//	mindepth     minimum eye-to-vertex depth (default the library default)
//	budget       resolution error budget in world units (store terrains
//	             solve the coarsest pyramid level within it; default exact)
//	progressive  "1" streams coarse-then-exact passes (JSON only): a
//	             "passes" array whose entries carry the usual response
//	             fields plus their own pieces
//	format       json (default) | svg | ascii
//	width        SVG pixel width (default 800) or ASCII columns (default
//	             100, at most 1000)
//	height       ASCII rows (default 30, at most 1000)
//	nocache      "1" bypasses the result cache for this query
//
// The JSON response reports the quantized eye actually solved, the cache
// outcome (hit / miss / coalesced / bypass), the engine plan the query took
// (also visible per terrain on /statsz), the LOD level that answered,
// timing, and the visible pieces. Pieces are streamed into the response —
// JSON through Result.EachPiece and SVG through the library's SVGStream —
// so even a massive scene is written without materializing a second copy
// of it. ASCII renders through the same display backend as before. The
// piece wire format is fixed: see the internal/serve package comment.
// Coordinates, mindepth and budget must be finite numbers; NaN or an
// infinity is a 400 naming the parameter. An unregistered terrain is a
// 404; every other rejected query is a 400.
//
// /flyover parameters:
//
//	terrain      terrain ID (may be omitted when exactly one is registered)
//	eye          "x,y,z" waypoint (required; repeat for a multi-leg path)
//	frames       interpolate the waypoints to this many frames (a single
//	             eye dwells in place — the replay fast path); omitted, the
//	             waypoints are flown as given. Waypoints and frames are
//	             each capped at 4096
//	algorithm    solver name, as for /viewshed
//	mindepth     minimum eye-to-vertex depth (default the library default)
//	budget       resolution error budget, as for /viewshed
//	format       json (default) streams every frame: eye, pieces, then the
//	             frame's reuse ledger (replayed, tiles_reused,
//	             tiles_reverified, tiles_resolved, verify_failures) and
//	             timing; svg flies the path and renders the final frame
//	width        SVG pixel width (default 800)
//
// Flyover frames answer through Server.QuerySession: consecutive frames
// warm-start from each other (identical eyes replay the recorded stream;
// moving eyes re-solve only tiles whose previous verdict the conservative
// cone check cannot confirm), and every frame's pieces stay byte-identical
// to an independent /viewshed of the same eye. Session reuse totals appear
// on /statsz (SessionFrames, SessionReplays and the tile reuse counters).
package main

import (
	"flag"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers the pprof handlers on DefaultServeMux, served only on -pprof-addr
	"os"
	"strings"

	terrainhsr "terrainhsr"
	"terrainhsr/internal/obs"
	"terrainhsr/internal/serve"
)

// newLogger builds the process logger at the requested level.
func newLogger(level string) *slog.Logger {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		lv = slog.LevelInfo
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))
}

// startPprof serves net/http/pprof on its own listener when addr is set:
// profiling stays off the service port, so exposing /viewshed never
// exposes heap dumps.
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

// terrainSpecs collects repeatable -terrain flags.
type terrainSpecs []string

// String renders the accumulated specs (flag.Value).
func (t *terrainSpecs) String() string { return strings.Join(*t, " ") }

// Set appends one spec (flag.Value).
func (t *terrainSpecs) Set(v string) error { *t = append(*t, v); return nil }

func main() {
	var specs, storeSpecs terrainSpecs
	addr := flag.String("addr", ":8080", "listen address")
	resolution := flag.Float64("resolution", 0.25, "viewpoint quantization grid spacing (0 = exact keys)")
	cacheCap := flag.Int("cache", 1024, "result cache capacity (negative disables caching)")
	workers := flag.Int("workers", 0, "worker budget per query (0 = all CPUs)")
	tileCells := flag.Int("tile-cells", 262144, "route grids with >= this many cells through the tiled engine (negative disables)")
	residencyMiB := flag.Int64("residency-budget", 0, "solve store levels estimated above this many MiB out-of-core, paging tile files band by band (0 disables)")
	traceSample := flag.Int("trace-sample", 0, "trace one query in every N (0 = only propagated X-HSR-Trace requests)")
	traceRing := flag.Int("trace-ring", 64, "finished traces kept for /tracez")
	slowQuery := flag.Duration("slow-query", 0, "log queries at least this slow at Warn with plan and cost ledger (0 disables)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	logLevel := flag.String("log-level", "info", "slog level: debug, info, warn, error (debug logs every query)")
	flag.Var(&specs, "terrain", "terrain spec id=...,kind=...,rows=...,cols=...,seed=... (repeatable)")
	flag.Var(&storeSpecs, "store", "LOD store spec id=...,path=... (repeatable; directories built by hsrstore)")
	flag.Parse()

	lg := newLogger(*logLevel).With(slog.String("component", "hsrserved"))
	fatal := func(msg string, attrs ...any) {
		lg.Error(msg, attrs...)
		os.Exit(1)
	}

	srv := terrainhsr.NewServer(terrainhsr.ServerOptions{
		Resolution:      *resolution,
		CacheCapacity:   *cacheCap,
		Workers:         *workers,
		TileCells:       *tileCells,
		ResidencyBudget: *residencyMiB << 20,
	})
	if len(specs) == 0 && len(storeSpecs) == 0 {
		specs = terrainSpecs{"id=demo,kind=fractal,rows=48,cols=48,seed=7,amplitude=8"}
	}
	for _, spec := range specs {
		id, tr, err := serve.BuildTerrain(spec)
		if err != nil {
			fatal("bad -terrain flag", slog.String("spec", spec), slog.Any("err", err))
		}
		if err := srv.Register(id, tr); err != nil {
			fatal("terrain registration failed", slog.String("spec", spec), slog.Any("err", err))
		}
		lg.Info("registered terrain", slog.String("terrain", id), slog.Int("edges", tr.NumEdges()))
	}
	for _, spec := range storeSpecs {
		id, path, err := serve.ParseStoreSpec(spec)
		if err != nil {
			fatal("bad -store flag", slog.String("spec", spec), slog.Any("err", err))
		}
		if err := srv.RegisterStore(id, path); err != nil {
			fatal("store registration failed", slog.String("spec", spec), slog.Any("err", err))
		}
		info, _ := srv.Describe(id)
		lg.Info("registered store", slog.String("terrain", id),
			slog.Int("levels", info.Levels), slog.Any("cells", info.CellSizes),
			slog.Int("finest_edges", info.Edges))
	}

	// A zero sampling rate still builds a tracer: propagated X-HSR-Trace
	// requests (the router sampled them) are always traced and land in the
	// ring. The stage histograms need no setup: the server always records
	// them (a few atomic adds per query).
	opt := serve.Options{
		Tracer:    obs.NewTracer(*traceSample, *traceRing),
		Logger:    lg,
		SlowQuery: *slowQuery,
	}
	startPprof(*pprofAddr, lg)

	lg.Info("listening", slog.String("addr", *addr))
	if err := http.ListenAndServe(*addr, serve.New(srv, opt)); err != nil {
		fatal("listener failed", slog.Any("err", err))
	}
}
