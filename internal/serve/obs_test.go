package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	terrainhsr "terrainhsr"
	"terrainhsr/internal/loadgen"
	"terrainhsr/internal/obs"
)

// newObsHandler builds a handler with the full observability stack: a
// tracer (sampling rate sampleEvery) and the server's stage histograms.
func newObsHandler(t *testing.T, sampleEvery int) (http.Handler, *obs.Tracer, *obs.Registry) {
	t.Helper()
	tracer := obs.NewTracer(sampleEvery, 16)
	srv := newObsServer(t)
	return New(srv, Options{Tracer: tracer}), tracer, srv.Metrics()
}

// newObsServer registers the observability tests' terrain as "demo".
func newObsServer(t *testing.T) *terrainhsr.Server {
	t.Helper()
	tr, err := terrainhsr.Generate(terrainhsr.GenParams{Kind: "fractal", Rows: 16, Cols: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv := terrainhsr.NewServer(terrainhsr.ServerOptions{})
	if err := srv.Register("demo", tr); err != nil {
		t.Fatal(err)
	}
	return srv
}

const obsEye = "/viewshed?terrain=demo&eye=-8,6,20"

// TestTracePropagation is the replica half of cross-tier tracing: a
// request carrying X-HSR-Trace is always traced (even at sampling rate
// zero), echoes the same ID back, exports its spans in X-HSR-Spans, and
// lands in /tracez under that ID with the stages a solve passes through.
func TestTracePropagation(t *testing.T) {
	h, tracer, _ := newObsHandler(t, 0) // rate 0: only propagated IDs trace
	req := httptest.NewRequest(http.MethodGet, obsEye, nil)
	req.Header.Set(obs.TraceHeader, "router-abc-123")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(obs.TraceHeader); got != "router-abc-123" {
		t.Fatalf("trace ID echo = %q, want the propagated ID", got)
	}
	spans := obs.ParseSpans(rec.Header().Get(obs.SpansHeader))
	if len(spans) == 0 {
		t.Fatal("no spans exported in " + obs.SpansHeader)
	}
	stages := make(map[string]bool)
	for _, s := range spans {
		stages[s.Stage] = true
	}
	for _, want := range []string{obs.StageRequest, obs.StagePlan, obs.StageCache, obs.StageSolve} {
		if !stages[want] {
			t.Fatalf("exported spans missing stage %q (got %v)", want, stages)
		}
	}
	if n := tracer.TotalFinished(); n != 1 {
		t.Fatalf("tracer finished %d traces, want 1", n)
	}

	// The trace is queryable by its propagated ID.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/tracez?id=router-abc-123", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"router-abc-123"`) {
		t.Fatalf("/tracez?id=...: status %d body %.200s", rec.Code, rec.Body.String())
	}
	// The cost ledger rides on the trace.
	if !strings.Contains(rec.Body.String(), `"cost"`) {
		t.Fatal("/tracez trace carries no cost ledger")
	}
}

// TestTracedBodyMatchesUnobserved checks that observation never changes an
// answer: the body served under a propagated trace (always sampled) and
// under rate-1 sampling equals, after zeroing the volatile timing and
// ledger fields, the body of a handler with no tracer — for a solving miss
// and for a cache hit.
func TestTracedBodyMatchesUnobserved(t *testing.T) {
	plain := New(newObsServer(t), Options{})
	propagated, _, _ := newObsHandler(t, 0)
	sampled, tracer, _ := newObsHandler(t, 1)
	body := func(h http.Handler, traceID string) []byte {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, obsEye, nil)
		if traceID != "" {
			req.Header.Set(obs.TraceHeader, traceID)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		return loadgen.NormalizeBody(rec.Body.Bytes())
	}
	for _, pass := range []string{"miss", "hit"} {
		want := body(plain, "")
		if got := body(propagated, "router-"+pass); !bytes.Equal(got, want) {
			t.Fatalf("%s under a propagated trace:\n got %s\nwant %s", pass, got, want)
		}
		if got := body(sampled, ""); !bytes.Equal(got, want) {
			t.Fatalf("%s under rate-1 sampling:\n got %s\nwant %s", pass, got, want)
		}
	}
	if n := tracer.TotalFinished(); n != 2 {
		t.Fatalf("rate-1 tracer finished %d traces, want 2", n)
	}
}

// TestUnsampledNoTraceHeaders checks the off switch: without a propagated
// ID and at sampling rate zero, responses carry no trace headers and the
// ring stays empty.
func TestUnsampledNoTraceHeaders(t *testing.T) {
	h, tracer, _ := newObsHandler(t, 0)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, obsEye, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Header().Get(obs.TraceHeader) != "" || rec.Header().Get(obs.SpansHeader) != "" {
		t.Fatal("unsampled response leaked trace headers")
	}
	if n := tracer.TotalFinished(); n != 0 {
		t.Fatalf("tracer finished %d traces for unsampled traffic", n)
	}
}

// TestMetricszEndpoint checks that served queries feed the per-stage
// histograms and that /metricsz renders both exposition formats.
func TestMetricszEndpoint(t *testing.T) {
	h, _, reg := newObsHandler(t, 0)
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, obsEye, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, rec.Code)
		}
	}
	snap := reg.Snapshot()
	var reqCount uint64
	for _, e := range snap.Hists {
		if e.Stage == obs.StageRequest {
			reqCount += e.Hist.Count
		}
	}
	if reqCount != 3 {
		t.Fatalf("request-stage observations = %d, want 3", reqCount)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	body := rec.Body.String()
	if rec.Code != http.StatusOK ||
		!strings.Contains(body, "# TYPE "+obs.MetricFamily+" histogram") ||
		!strings.Contains(body, obs.MetricFamily+"_bucket") {
		t.Fatalf("/metricsz Prometheus text: status %d body %.200s", rec.Code, body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz?format=json", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"hists"`) {
		t.Fatalf("/metricsz JSON: status %d body %.200s", rec.Code, rec.Body.String())
	}
}

// TestModeVocabulary pins the plan-mode strings operators and dashboards
// see, one serving route at a time: QueryResult.Mode, the engine=<mode>
// prefix of QueryResult.Plan, the /viewshed JSON "mode" field on the solving
// miss and on the cache hit that reports the recorded plan, and the
// mode="..." label /metricsz files the request under. It also pins the
// kernel: the kernel=<name> of the plan text, the miss's cost-ledger
// "kernel" field and the hit's empty one (a hit charges no work).
func TestModeVocabulary(t *testing.T) {
	checkMode := func(t *testing.T, what, mode, plan, want string) {
		t.Helper()
		if mode != want || !strings.HasPrefix(plan, "engine="+want+" ") {
			t.Fatalf("%s: mode %q plan %q, want mode %q", what, mode, plan, want)
		}
	}
	metricsHasMode := func(t *testing.T, h http.Handler, want string) {
		t.Helper()
		body := string(serveBody(t, h, "/metricsz"))
		if !strings.Contains(body, `mode="`+want+`"`) {
			t.Fatalf("/metricsz has no mode=%q series:\n%.600s", want, body)
		}
	}
	checkKernel := func(t *testing.T, what, plan string, cost *terrainhsr.CostLedger, want, wantCost string) {
		t.Helper()
		got := ""
		if cost != nil {
			got = cost.Kernel
		}
		if !strings.Contains(plan, " kernel="+want) || got != wantCost {
			t.Fatalf("%s: plan %q, ledger kernel %q; want kernel=%s in the plan and %q in the ledger", what, plan, got, want, wantCost)
		}
	}
	for _, tc := range []struct {
		name, mode string
		opt        terrainhsr.ServerOptions
		store      bool
		eye        terrainhsr.Point
		kernel     string
	}{
		{"plain grid under the threshold", "batched", terrainhsr.ServerOptions{}, false, terrainhsr.Point{X: -8, Y: 6, Z: 20}, "sequential-tree"},
		{"TileCells 1", "batched-tiled", terrainhsr.ServerOptions{TileCells: 1}, false, terrainhsr.Point{X: -8, Y: 6, Z: 20}, "sequential-tree"},
		{"store level over the residency budget", "out-of-core",
			terrainhsr.ServerOptions{ResidencyBudget: 100_000}, true, terrainhsr.Point{X: -10, Y: 20, Z: 40}, "sequential-tree"},
		{"out-of-core level with tiled routing disabled", "out-of-core",
			terrainhsr.ServerOptions{ResidencyBudget: 100_000, TileCells: -1}, true, terrainhsr.Point{X: -10, Y: 20, Z: 40}, "sequential-tree"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := terrainhsr.NewServer(tc.opt)
			var err error
			if tc.store {
				err = srv.RegisterStore("demo", writeDemoStore(t))
			} else {
				var tr *terrainhsr.Terrain
				if tr, err = terrainhsr.Generate(terrainhsr.GenParams{Kind: "fractal", Rows: 16, Cols: 16, Seed: 7}); err == nil {
					err = srv.Register("demo", tr)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			qr, err := srv.Query(terrainhsr.Query{TerrainID: "demo", Eye: tc.eye, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			checkMode(t, "Query", qr.Mode, qr.Plan, tc.mode)
			checkKernel(t, "Query", qr.Plan, qr.Cost, tc.kernel, tc.kernel)

			h := New(srv, Options{})
			url := fmt.Sprintf("/viewshed?terrain=demo&eye=%g,%g,%g", tc.eye.X, tc.eye.Y, tc.eye.Z)
			for _, pass := range []string{"miss", "hit"} {
				var resp viewshedResponse
				if err := json.Unmarshal(serveBody(t, h, url), &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Cache != pass {
					t.Fatalf("/viewshed answered %q, want %q", resp.Cache, pass)
				}
				checkMode(t, "/viewshed "+pass, resp.Mode, resp.Plan, tc.mode)
				wantCost := tc.kernel
				if pass == "hit" {
					wantCost = ""
				}
				checkKernel(t, "/viewshed "+pass, resp.Plan, resp.Cost, tc.kernel, wantCost)
			}
			metricsHasMode(t, h, tc.mode)
		})
	}
	t.Run("flyover session", func(t *testing.T) {
		srv := newObsServer(t)
		qr, err := srv.QuerySession(terrainhsr.Query{TerrainID: "demo", Eye: terrainhsr.Point{X: -8, Y: 6, Z: 20}},
			func(terrainhsr.Piece) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		checkMode(t, "QuerySession", qr.Mode, qr.Plan, "coherent")
		h := New(srv, Options{})
		serveBody(t, h, "/flyover?terrain=demo&eye=-8,6,20&eye=-9,6,21")
		metricsHasMode(t, h, "coherent")
	})
}

// TestObsDisabledEndpoints404 checks the zero-value Options contract:
// without a tracer the endpoint answers 404, not panic.
func TestObsDisabledEndpoints404(t *testing.T) {
	tr, err := terrainhsr.Generate(terrainhsr.GenParams{Kind: "fractal", Rows: 10, Cols: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := terrainhsr.NewServer(terrainhsr.ServerOptions{})
	if err := srv.Register("demo", tr); err != nil {
		t.Fatal(err)
	}
	h := New(srv, Options{})
	for _, path := range []string{"/tracez"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s without obs configured: status %d, want 404", path, rec.Code)
		}
	}
}

// TestSlowQueryThreshold sanity-checks the flag plumbing: a threshold of
// zero disables slow logging, a tiny one triggers it. The log output
// itself goes to slog; here we only assert the handler keeps serving.
func TestSlowQueryThreshold(t *testing.T) {
	trn, err := terrainhsr.Generate(terrainhsr.GenParams{Kind: "fractal", Rows: 16, Cols: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv := terrainhsr.NewServer(terrainhsr.ServerOptions{})
	if err := srv.Register("demo", trn); err != nil {
		t.Fatal(err)
	}
	h := New(srv, Options{SlowQuery: time.Nanosecond})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, obsEye, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d with slow-query logging armed", rec.Code)
	}
}
