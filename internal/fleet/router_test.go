package fleet

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	terrainhsr "terrainhsr"
	"terrainhsr/internal/obs"
)

// silent drops router diagnostics in tests that expect failures.
func silent(string, ...any) {}

func TestAggregateStats(t *testing.T) {
	r1, r2, r3 := obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()
	r1.Observe(obs.StageSolve, "batched-tiled", 2*time.Millisecond)
	r1.Observe(obs.StageSolve, "batched-tiled", 3*time.Millisecond)
	r2.Observe(obs.StageSolve, "batched-tiled", 4*time.Millisecond)
	r2.Observe(obs.StagePlan, "batched", time.Millisecond)
	r3.Observe(obs.StageSolve, "batched-tiled", time.Second)
	a := &terrainhsr.ServerStats{
		Terrains: 2, CacheEntries: 10, Hits: 100, Misses: 20, Coalesced: 3,
		Evictions: 1, Solves: 23, TiledSolves: 4,
		Plans:         map[string]string{"alps": "engine=batched"},
		LevelQueries:  map[string][]int64{"alps": {5, 2}},
		StoreBytes:    map[string]int64{"alps": 1000},
		ResidentBytes: map[string]int64{"alps": 400},
		PageIns:       map[string]int64{"alps": 7},
		Stages:        r1.Snapshot(),
	}
	b := &terrainhsr.ServerStats{
		Terrains: 2, CacheEntries: 6, Hits: 50, Misses: 10, Coalesced: 1,
		Evictions: 2, Solves: 11, TiledSolves: 1,
		Plans:         map[string]string{"alps": "engine=batched", "delta": "engine=tiled"},
		LevelQueries:  map[string][]int64{"alps": {1, 1, 1}, "delta": {9}},
		StoreBytes:    map[string]int64{"alps": 500, "delta": 30},
		ResidentBytes: map[string]int64{"alps": 100},
		PageIns:       map[string]int64{"delta": 2},
		Stages:        r2.Snapshot(),
	}
	fs := AggregateStats([]ReplicaStats{
		{Addr: "http://r1", Healthy: true, Stats: a},
		{Addr: "http://r2", Healthy: true, Stats: b},
		// A down replica's (stale) snapshot never reaches the fleet rollup.
		{Addr: "http://r3", Error: "connection refused", Stats: &terrainhsr.ServerStats{Hits: 1000, Stages: r3.Snapshot()}},
	})
	if fs.Reporting != 2 || fs.Down != 1 {
		t.Fatalf("reporting=%d down=%d, want 2/1", fs.Reporting, fs.Down)
	}
	if len(fs.Replicas) != 3 {
		t.Fatalf("down replica dropped from the per-replica list: %v", fs.Replicas)
	}
	if fs.Replicas[2].Addr != "http://r3" || fs.Replicas[2].Healthy || fs.Replicas[2].Error == "" {
		t.Fatalf("down replica not reported as down: %+v", fs.Replicas[2])
	}
	f := fs.Fleet
	if f.Terrains != 2 {
		t.Errorf("Terrains = %d, want max 2", f.Terrains)
	}
	if f.CacheEntries != 16 || f.Hits != 150 || f.Misses != 30 || f.Coalesced != 4 ||
		f.Evictions != 3 || f.Solves != 34 || f.TiledSolves != 5 {
		t.Errorf("counter sums wrong: %+v", f)
	}
	if f.Plans["alps"] != "engine=batched" || f.Plans["delta"] != "engine=tiled" {
		t.Errorf("Plans = %v", f.Plans)
	}
	wantLQ := []int64{6, 3, 1}
	for i, v := range wantLQ {
		if f.LevelQueries["alps"][i] != v {
			t.Fatalf("LevelQueries[alps] = %v, want %v (elementwise sum with padding)", f.LevelQueries["alps"], wantLQ)
		}
	}
	if f.LevelQueries["delta"][0] != 9 {
		t.Errorf("LevelQueries[delta] = %v", f.LevelQueries["delta"])
	}
	if f.StoreBytes["alps"] != 1500 || f.StoreBytes["delta"] != 30 {
		t.Errorf("StoreBytes = %v", f.StoreBytes)
	}
	if f.ResidentBytes["alps"] != 500 {
		t.Errorf("ResidentBytes = %v", f.ResidentBytes)
	}
	if f.PageIns["alps"] != 7 || f.PageIns["delta"] != 2 {
		t.Errorf("PageIns = %v", f.PageIns)
	}
	// Stage histograms: series sharing (stage, mode) sum bucket-wise,
	// disjoint series append, and the down replica contributes nothing.
	counts := map[string]uint64{}
	for _, e := range f.Stages.Hists {
		counts[e.Stage+"/"+e.Mode] = e.Hist.Count
	}
	want := map[string]uint64{"solve/batched-tiled": 3, "plan/batched": 1}
	if len(counts) != len(want) {
		t.Fatalf("Stages series = %v, want %v", counts, want)
	}
	for k, n := range want {
		if counts[k] != n {
			t.Fatalf("Stages[%s] = %d, want %d (all: %v)", k, counts[k], n, counts)
		}
	}
	if got := f.Stages.Hists[1].Hist.SumNS; got != int64(9*time.Millisecond) {
		t.Errorf("merged solve series sums %v, want 9ms", time.Duration(got))
	}
}

func TestAggregateStatsAllDown(t *testing.T) {
	fs := AggregateStats([]ReplicaStats{
		{Addr: "http://r1", Error: "refused"},
		{Addr: "http://r2", Error: "refused"},
	})
	if fs.Reporting != 0 || fs.Down != 2 || len(fs.Replicas) != 2 {
		t.Fatalf("all-down aggregation wrong: %+v", fs)
	}
	if fs.Fleet.Hits != 0 || fs.Fleet.Terrains != 0 {
		t.Fatalf("all-down fleet sum not zero: %+v", fs.Fleet)
	}
}

func TestReplicaNote(t *testing.T) {
	r := &replica{addr: "http://r1"}
	r.healthy.Store(true)
	if r.note(false, 3, "e1") {
		t.Fatal("first failure flipped health")
	}
	if r.note(false, 3, "e2") {
		t.Fatal("second failure flipped health")
	}
	if !r.note(false, 3, "e3") {
		t.Fatal("third failure did not eject")
	}
	if r.healthy.Load() {
		t.Fatal("still healthy after ejection")
	}
	if r.note(false, 3, "e4") {
		t.Fatal("failure after ejection flipped again")
	}
	if !r.note(true, 3, "") {
		t.Fatal("success did not readmit")
	}
	if !r.healthy.Load() || r.fails.Load() != 0 {
		t.Fatalf("readmission left healthy=%v fails=%d", r.healthy.Load(), r.fails.Load())
	}
}

// markedServer is a test replica whose /viewshed responds with its own
// marker, optionally slowly or with a 500.
type markedServer struct {
	marker  string
	slow    atomic.Bool
	failing atomic.Bool
	srv     *httptest.Server
}

func newMarkedServer(marker string) *markedServer {
	m := &markedServer{marker: marker}
	m.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			if m.failing.Load() {
				http.Error(w, "down", http.StatusServiceUnavailable)
				return
			}
			w.Write([]byte("ok\n"))
			return
		}
		if m.failing.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		if m.slow.Load() {
			time.Sleep(300 * time.Millisecond)
		}
		w.Write([]byte(m.marker))
	}))
	return m
}

func TestHedgingCoversSlowPrimary(t *testing.T) {
	a, b := newMarkedServer("A"), newMarkedServer("B")
	defer a.srv.Close()
	defer b.srv.Close()
	rt, err := New(Options{
		Replicas:      []string{a.srv.URL, b.srv.URL},
		HedgeAfter:    20 * time.Millisecond,
		ProbeInterval: -1,
		Logf:          silent,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// Slow down whichever replica the ring makes primary for this key.
	order := rt.routeOrder(rt.shardKey("alps", 0), 1)
	byURL := map[string]*markedServer{a.srv.URL: a, b.srv.URL: b}
	primary, backup := byURL[order[0].addr], byURL[order[1].addr]
	primary.slow.Store(true)

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/viewshed?terrain=alps", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %q", rec.Code, rec.Body.String())
	}
	if got := rec.Body.String(); got != backup.marker {
		t.Fatalf("hedge did not win: answered by %q, want the fast backup %q", got, backup.marker)
	}
	if got := rec.Header().Get("X-HSR-Replica"); got != backup.srv.URL {
		t.Fatalf("X-HSR-Replica = %q, want %q", got, backup.srv.URL)
	}
	c := rt.Counters()
	if c.Routed != 1 || c.Hedged < 1 || c.HedgeWins < 1 {
		t.Fatalf("counters after hedged query: %+v", c)
	}

	// With hedging disabled the slow primary must still answer (slowly).
	rt2, err := New(Options{
		Replicas:      []string{a.srv.URL, b.srv.URL},
		HedgeAfter:    -1,
		ProbeInterval: -1,
		Logf:          silent,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	rec2 := httptest.NewRecorder()
	rt2.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/viewshed?terrain=alps", nil))
	if got := rec2.Body.String(); got != primary.marker {
		t.Fatalf("unhedged query answered by %q, want the primary %q", got, primary.marker)
	}
	if c := rt2.Counters(); c.Hedged != 0 {
		t.Fatalf("hedges launched while disabled: %+v", c)
	}
}

func TestFailoverEjectionReadmission(t *testing.T) {
	a, b := newMarkedServer("A"), newMarkedServer("B")
	defer a.srv.Close()
	defer b.srv.Close()
	rt, err := New(Options{
		Replicas:      []string{a.srv.URL, b.srv.URL},
		HedgeAfter:    -1,
		ProbeInterval: 100 * time.Millisecond, // prober not started; used as probe timeout
		EjectAfter:    1,
		Logf:          silent,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	order := rt.routeOrder(rt.shardKey("alps", 0), 1)
	byURL := map[string]*markedServer{a.srv.URL: a, b.srv.URL: b}
	primary, backup := byURL[order[0].addr], byURL[order[1].addr]
	primary.failing.Store(true)

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/viewshed?terrain=alps", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != backup.marker {
		t.Fatalf("failover answer: status %d body %q, want 200 from %q", rec.Code, rec.Body.String(), backup.marker)
	}
	c := rt.Counters()
	if c.Failovers < 1 || c.Ejections != 1 {
		t.Fatalf("counters after 5xx failover: %+v", c)
	}
	for _, h := range rt.Snapshot() {
		if h.Addr == primary.srv.URL && h.Healthy {
			t.Fatal("failing primary not ejected")
		}
	}
	// Ejected replicas route to the tail, so the next query goes straight
	// to the healthy backup with no failover.
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/viewshed?terrain=alps", nil))
	if rec.Body.String() != backup.marker {
		t.Fatalf("ejected replica still primary: answered %q", rec.Body.String())
	}
	if got := rt.Counters().Failovers; got != c.Failovers {
		t.Fatalf("ejected primary still being tried first: failovers %d -> %d", c.Failovers, got)
	}

	// Recovery: one passing probe readmits.
	primary.failing.Store(false)
	rt.probeOnce()
	for _, h := range rt.Snapshot() {
		if !h.Healthy {
			t.Fatalf("replica %s not readmitted after passing probe", h.Addr)
		}
	}
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/viewshed?terrain=alps", nil))
	if rec.Body.String() != primary.marker {
		t.Fatalf("readmitted primary not routed: answered %q", rec.Body.String())
	}
}

func TestHealthzReflectsFleet(t *testing.T) {
	a := newMarkedServer("A")
	defer a.srv.Close()
	rt, err := New(Options{Replicas: []string{a.srv.URL}, ProbeInterval: 100 * time.Millisecond, EjectAfter: 1, HedgeAfter: -1, Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy fleet /healthz = %d", rec.Code)
	}
	a.failing.Store(true)
	rt.probeOnce()
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("fully ejected fleet /healthz = %d, want 503", rec.Code)
	}
}

// TestRouterStatszDownReplica exercises the HTTP half of the aggregation:
// a router over one live replica and one dead address still reports both.
func TestRouterStatszDownReplica(t *testing.T) {
	a := newMarkedServer("A")
	defer a.srv.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	rt, err := New(Options{Replicas: []string{a.srv.URL, deadURL}, ProbeInterval: -1, HedgeAfter: -1, Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	stats := rt.FetchStats()
	if len(stats) != 2 {
		t.Fatalf("FetchStats returned %d entries, want 2", len(stats))
	}
	if stats[1].Addr != deadURL || stats[1].Healthy || stats[1].Error == "" {
		t.Fatalf("dead replica not reported: %+v", stats[1])
	}
	// The marked server's /statsz is not JSON, so the live replica reports
	// a parse error rather than stats — also a "down" outcome for /statsz.
	if stats[0].Healthy && stats[0].Stats == nil {
		t.Fatalf("live replica healthy without stats: %+v", stats[0])
	}
}
