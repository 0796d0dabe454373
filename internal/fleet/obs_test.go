package fleet_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	terrainhsr "terrainhsr"
	"terrainhsr/internal/fleet"
	"terrainhsr/internal/obs"
	"terrainhsr/internal/serve"
)

// tracedReplica is one replica with its observability handles exposed and
// an optional artificial delay, so tests can force a hedge and then look
// inside both tiers' traces.
type tracedReplica struct {
	srv    *httptest.Server
	tracer *obs.Tracer
	delay  time.Duration
}

// newTracedReplica builds a replica that traces propagated IDs (sampling
// rate zero — the router decides) and delays every response by delay.
func newTracedReplica(t *testing.T, delay time.Duration) *tracedReplica {
	t.Helper()
	srv := terrainhsr.NewServer(terrainhsr.ServerOptions{})
	for _, spec := range testSpecs {
		id, tr, err := serve.BuildTerrain(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Register(id, tr); err != nil {
			t.Fatal(err)
		}
	}
	rep := &tracedReplica{tracer: obs.NewTracer(0, 16), delay: delay}
	h := serve.New(srv, serve.Options{Tracer: rep.tracer})
	rep.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rep.delay > 0 && r.URL.Path == "/viewshed" {
			time.Sleep(rep.delay)
		}
		h.ServeHTTP(w, r)
	}))
	return rep
}

// spanAttr returns a span attribute's value, "" when absent.
func spanAttr(s obs.Span, key string) string {
	for _, a := range s.Attrs {
		if a.K == key {
			return a.V
		}
	}
	return ""
}

// TestRouterTraceCoversHedgedQuery is the tracing acceptance path end to
// end: one hedged query through the router yields one trace — the ID the
// client sees, the ID both replicas saw, and the ID on the router's
// /tracez — whose span tree holds the request, both hedge attempts with
// winner/loser attribution, and the winning replica's own stages grafted
// under its attempt.
func TestRouterTraceCoversHedgedQuery(t *testing.T) {
	// Both replicas are slow enough that the hedge always launches, so the
	// test does not depend on which one the ring makes primary.
	const delay = 120 * time.Millisecond
	a := newTracedReplica(t, delay)
	b := newTracedReplica(t, delay)
	defer a.srv.Close()
	defer b.srv.Close()
	rt, err := fleet.New(fleet.Options{
		Replicas:      []string{a.srv.URL, b.srv.URL},
		HedgeAfter:    20 * time.Millisecond,
		ProbeInterval: -1,
		Tracer:        obs.NewTracer(1, 8), // trace every routed query
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/viewshed?terrain=alps&eye=-8,6,20&mindepth=0.5", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %.300s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get(obs.TraceHeader)
	if traceID == "" {
		t.Fatal("routed response carries no trace ID")
	}
	if rec.Header().Get(obs.SpansHeader) != "" {
		t.Fatal("router leaked the replica's raw span export to the client")
	}

	// One trace on the router, under the ID the client saw.
	var tz struct {
		Traces []struct {
			ID    string     `json:"id"`
			Spans []obs.Span `json:"spans"`
		} `json:"traces"`
	}
	trec := httptest.NewRecorder()
	rt.ServeHTTP(trec, httptest.NewRequest(http.MethodGet, "/tracez?id="+traceID, nil))
	if err := json.Unmarshal(trec.Body.Bytes(), &tz); err != nil {
		t.Fatalf("parse /tracez: %v", err)
	}
	if len(tz.Traces) != 1 {
		t.Fatalf("router /tracez has %d traces for id %s, want 1", len(tz.Traces), traceID)
	}
	spans := tz.Traces[0].Spans

	var reqID int32
	for _, s := range spans {
		if s.Stage == obs.StageRequest && s.Parent == 0 {
			reqID = s.ID
		}
	}
	if reqID == 0 {
		t.Fatalf("no root request span in %v", spans)
	}
	var winner obs.Span
	outcomes := map[string]int{}
	for _, s := range spans {
		if s.Stage != obs.StageAttempt {
			continue
		}
		if s.Parent != reqID {
			t.Fatalf("attempt span %d is not a child of the request span", s.ID)
		}
		oc := spanAttr(s, "outcome")
		outcomes[oc]++
		if oc == "winner" {
			winner = s
		}
	}
	if outcomes["winner"] != 1 || outcomes["lost"] < 1 {
		t.Fatalf("attempt outcomes = %v, want one winner and at least one lost hedge", outcomes)
	}
	// The winning replica's stages are grafted under the winning attempt:
	// its root request span hangs off the attempt, deeper stages transitively.
	grafted := map[string]bool{}
	under := map[int32]bool{winner.ID: true}
	for _, s := range spans {
		if under[s.Parent] {
			under[s.ID] = true
			grafted[s.Stage] = true
		}
	}
	for _, want := range []string{obs.StageRequest, obs.StagePlan, obs.StageSolve} {
		if !grafted[want] {
			t.Fatalf("winning attempt is missing grafted replica stage %q (got %v)", want, grafted)
		}
	}

	// Both replicas traced the same propagated ID. The loser's trace only
	// finishes when its delayed response completes, after the routed
	// answer has already streamed — so poll.
	deadline := time.Now().Add(3 * time.Second)
	for name, rep := range map[string]*tracedReplica{"a": a, "b": b} {
		found := false
		for !found {
			for _, ft := range rep.tracer.Traces() {
				if ft.ID == traceID {
					found = true
				}
			}
			if !found {
				if !time.Now().Before(deadline) {
					t.Fatalf("replica %s has no trace %s — propagation broke", name, traceID)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}

	// The loser's true latency surfaces once its response arrives: count
	// and histogram, visible on /fleetz.
	for rt.AttemptLatencies().Loser.Count == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	al := rt.AttemptLatencies()
	if al.Loser.Count < 1 || rt.Counters().HedgeLosers < 1 {
		t.Fatalf("hedge loser invisible: latencies %+v counters %+v", al, rt.Counters())
	}
	if al.Winner.Count != 1 {
		t.Fatalf("winner latency count = %d, want 1", al.Winner.Count)
	}
	// The loser ran at least its replica's artificial delay.
	if got := time.Duration(al.Loser.MeanUS) * time.Microsecond; got < delay/2 {
		t.Fatalf("loser mean latency %v implausibly short for a %v replica", got, delay)
	}
	frec := httptest.NewRecorder()
	rt.ServeHTTP(frec, httptest.NewRequest(http.MethodGet, "/fleetz", nil))
	if !strings.Contains(frec.Body.String(), `"attempt_latency"`) ||
		!strings.Contains(frec.Body.String(), `"hedge_losers"`) {
		t.Fatalf("/fleetz does not surface attempt latencies: %.300s", frec.Body.String())
	}
}

// TestRouterMetricszAggregates checks the fleet's histogram rollup: the
// router's /metricsz merges every replica's series with its own router-
// and attempt-stage series into one Prometheus exposition, and serves the
// merged snapshot as JSON.
func TestRouterMetricszAggregates(t *testing.T) {
	a := newTracedReplica(t, 0)
	b := newTracedReplica(t, 0)
	defer a.srv.Close()
	defer b.srv.Close()
	rt, err := fleet.New(fleet.Options{
		Replicas:      []string{a.srv.URL, b.srv.URL},
		HedgeAfter:    -1,
		ProbeInterval: -1,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/viewshed?terrain=delta&eye=-8,6,20&mindepth=0.5", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, rec.Code)
		}
	}

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	body := rec.Body.String()
	if rec.Code != http.StatusOK ||
		!strings.Contains(body, "# TYPE "+obs.MetricFamily+" histogram") {
		t.Fatalf("router /metricsz: status %d body %.300s", rec.Code, body)
	}
	// Router-local series and replica-side series coexist in one family.
	if !strings.Contains(body, `mode="router"`) {
		t.Fatalf("router /metricsz missing the router's own request series:\n%.500s", body)
	}
	if !strings.Contains(body, `stage="solve"`) {
		t.Fatalf("router /metricsz missing replica solve series:\n%.500s", body)
	}

	var snap obs.RegistrySnapshot
	jrec := httptest.NewRecorder()
	rt.ServeHTTP(jrec, httptest.NewRequest(http.MethodGet, "/metricsz?format=json", nil))
	if err := json.Unmarshal(jrec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("parse /metricsz JSON: %v", err)
	}
	// The replicas' request-stage counts sum to the routed queries.
	var replicaReqs uint64
	for _, e := range snap.Hists {
		if e.Stage == obs.StageRequest && e.Mode != "router" {
			replicaReqs += e.Hist.Count
		}
	}
	if replicaReqs != 3 {
		t.Fatalf("aggregated replica request observations = %d, want 3", replicaReqs)
	}
}

// TestAggregateMetricsPure exercises /metricsz's merge arithmetic without
// HTTP: the replicas' /statsz Stages roll up through AggregateStats, then
// merge with the router's own series. Series sharing (stage, mode) sum
// bucket-wise, disjoint series append, and down replicas are skipped.
func TestAggregateMetricsPure(t *testing.T) {
	r1 := obs.NewRegistry()
	r1.Observe(obs.StageSolve, "tiled", 2*time.Millisecond)
	r1.Observe(obs.StageSolve, "tiled", 3*time.Millisecond)
	r2 := obs.NewRegistry()
	r2.Observe(obs.StageSolve, "tiled", 4*time.Millisecond)
	r2.Observe(obs.StagePlan, "monolithic", time.Millisecond)
	down := obs.NewRegistry()
	down.Observe(obs.StageSolve, "tiled", time.Second)
	local := obs.NewRegistry()
	local.Observe(obs.StageRequest, "router", time.Millisecond)

	fs := fleet.AggregateStats([]fleet.ReplicaStats{
		{Addr: "r1", Healthy: true, Stats: &terrainhsr.ServerStats{Stages: r1.Snapshot()}},
		{Addr: "r2", Healthy: true, Stats: &terrainhsr.ServerStats{Stages: r2.Snapshot()}},
		{Addr: "down", Error: "refused", Stats: &terrainhsr.ServerStats{Stages: down.Snapshot()}},
	})
	merged := local.Snapshot()
	merged.Merge(fs.Fleet.Stages)

	counts := map[string]uint64{}
	for _, e := range merged.Hists {
		counts[e.Stage+"/"+e.Mode] = e.Hist.Count
	}
	want := map[string]uint64{"solve/tiled": 3, "plan/monolithic": 1, "request/router": 1}
	if len(counts) != len(want) {
		t.Fatalf("merged series = %v, want %v", counts, want)
	}
	for k, n := range want {
		if counts[k] != n {
			t.Fatalf("merged[%s] = %d, want %d (all: %v)", k, counts[k], n, counts)
		}
	}
}
