package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	terrainhsr "terrainhsr"
	"terrainhsr/internal/fleet"
	"terrainhsr/internal/loadgen"
	"terrainhsr/internal/serve"
	"terrainhsr/internal/workload"
)

// testSpecs are the shared terrain specs every test replica registers —
// small enough that solves are fast, two terrains so routing actually
// spreads.
var testSpecs = []string{
	"id=alps,kind=ridge,rows=16,cols=16,seed=7",
	"id=delta,kind=fractal,rows=14,cols=14,seed=3",
}

// newReplicaServer builds one serving replica: its own query server (own
// cache) registering testSpecs, wrapped in the serve handler.
func newReplicaServer(t *testing.T) http.Handler {
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
	return serve.New(srv, serve.Options{})
}

// testTerrains regenerates the testSpecs terrains for eye derivation.
func testTerrains(t *testing.T) []loadgen.NamedTerrain {
	t.Helper()
	var out []loadgen.NamedTerrain
	for _, spec := range testSpecs {
		id, p, err := workload.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, loadgen.NamedTerrain{ID: id, T: tr})
	}
	return out
}

// get fetches a URL and returns the body, failing the test on transport
// errors.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, body
}

// TestFleetIdentity is the fleet guarantee end to end: the same query
// answered through the router and directly by each replica yields the
// same bytes — for JSON after normalizing the two volatile fields, for
// SVG exactly — across algorithms and across cached and uncached legs.
func TestFleetIdentity(t *testing.T) {
	var replicaURLs []string
	for i := 0; i < 3; i++ {
		s := httptest.NewServer(newReplicaServer(t))
		defer s.Close()
		replicaURLs = append(replicaURLs, s.URL)
	}
	rt, err := fleet.New(fleet.Options{
		Replicas:      replicaURLs,
		HedgeAfter:    -1, // deterministic: exactly one replica answers
		ProbeInterval: -1,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	router := httptest.NewServer(rt)
	defer router.Close()

	reqs, err := loadgen.Scenario(loadgen.ScenarioOptions{
		BaseURL:  router.URL,
		Terrains: testTerrains(t),
		Count:    6,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	algorithms := []string{"", "sequential", "sequential-tree"}
	for _, algo := range algorithms {
		for i, req := range reqs {
			pathQuery := strings.TrimPrefix(req.URL, router.URL)
			if algo != "" {
				pathQuery += "&algorithm=" + algo
			}
			for _, leg := range []string{"", "&nocache=1"} {
				// Two routed fetches: the second may be a cache hit on the
				// owning replica; both must normalize identically.
				status, routed := get(t, router.URL+pathQuery+leg)
				if status != http.StatusOK {
					t.Fatalf("routed %s: status %d: %s", pathQuery+leg, status, routed)
				}
				_, routedAgain := get(t, router.URL+pathQuery+leg)
				normRouted := loadgen.NormalizeBody(routed)
				if !bytes.Equal(normRouted, loadgen.NormalizeBody(routedAgain)) {
					t.Fatalf("query %d algo %q leg %q: two routed answers differ", i, algo, leg)
				}
				for _, rep := range replicaURLs {
					_, direct := get(t, rep+pathQuery+leg)
					if !bytes.Equal(normRouted, loadgen.NormalizeBody(direct)) {
						t.Fatalf("query %d algo %q leg %q: routed answer differs from replica %s\nrouted: %.200s\ndirect: %.200s",
							i, algo, leg, rep, normRouted, loadgen.NormalizeBody(direct))
					}
				}
			}
			// SVG has no volatile fields at all: exact byte identity.
			svgPath := pathQuery + "&format=svg"
			status, routedSVG := get(t, router.URL+svgPath)
			if status != http.StatusOK {
				t.Fatalf("routed %s: status %d: %s", svgPath, status, routedSVG)
			}
			for _, rep := range replicaURLs {
				_, directSVG := get(t, rep+svgPath)
				if !bytes.Equal(routedSVG, directSVG) {
					t.Fatalf("query %d algo %q: routed SVG differs from replica %s", i, algo, rep)
				}
			}
		}
	}
}

// restartableReplica is a replica on a fixed port that can be stopped and
// restarted — the chaos test's victim.
type restartableReplica struct {
	t       *testing.T
	handler http.Handler
	addr    string

	mu  sync.Mutex
	srv *http.Server
	ln  net.Listener
}

func startRestartable(t *testing.T, handler http.Handler) *restartableReplica {
	r := &restartableReplica{t: t, handler: handler}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.addr = ln.Addr().String()
	r.serveOn(ln)
	return r
}

// serveOn starts an http.Server on the listener.
func (r *restartableReplica) serveOn(ln net.Listener) {
	r.mu.Lock()
	r.ln = ln
	r.srv = &http.Server{Handler: r.handler}
	srv := r.srv
	r.mu.Unlock()
	go srv.Serve(ln)
}

// stop drains in-flight requests and stops accepting new ones.
func (r *restartableReplica) stop() {
	r.mu.Lock()
	srv := r.srv
	r.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		r.t.Logf("chaos shutdown: %v", err)
	}
}

// restart listens on the replica's original address again.
func (r *restartableReplica) restart() {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", r.addr)
		if err == nil {
			r.serveOn(ln)
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("chaos restart on %s: %v", r.addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetChaos kills a replica while load is running — the fleet must
// absorb it with zero client-visible errors — and readmits it after a
// restart.
func TestFleetChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test runs real load")
	}
	victim := startRestartable(t, newReplicaServer(t))
	defer victim.stop()
	var replicaURLs = []string{"http://" + victim.addr}
	for i := 0; i < 2; i++ {
		s := httptest.NewServer(newReplicaServer(t))
		defer s.Close()
		replicaURLs = append(replicaURLs, s.URL)
	}
	rt, err := fleet.New(fleet.Options{
		Replicas:      replicaURLs,
		HedgeAfter:    500 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
		EjectAfter:    2,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	router := httptest.NewServer(rt)
	defer router.Close()

	reqs, err := loadgen.Scenario(loadgen.ScenarioOptions{
		BaseURL:  router.URL,
		Terrains: testTerrains(t),
		Count:    30,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Leg 1: load with the replica dying mid-run.
	done := make(chan loadgen.Report, 1)
	go func() {
		done <- loadgen.Run(loadgen.Options{Workers: 4, Repeats: 4, CheckBodies: true}, reqs)
	}()
	time.Sleep(150 * time.Millisecond)
	victim.stop()
	rep1 := <-done
	if rep1.Errors > 0 {
		t.Fatalf("killing a replica mid-load surfaced %d errors to clients: %v", rep1.Errors, rep1.ErrorSamples)
	}
	if rep1.Mismatches > 0 {
		t.Fatalf("failover changed answers: %d mismatches", rep1.Mismatches)
	}

	// The prober must eject the dead replica.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ejected := false
		for _, h := range rt.Snapshot() {
			if h.Addr == "http://"+victim.addr && !h.Healthy {
				ejected = true
			}
		}
		if ejected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead replica never ejected: %+v", rt.Snapshot())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Leg 2: load against the degraded fleet — still zero errors.
	rep2 := loadgen.Run(loadgen.Options{Workers: 4, Repeats: 2, CheckBodies: true}, reqs)
	if rep2.Errors > 0 || rep2.Mismatches > 0 {
		t.Fatalf("degraded fleet: %d errors %d mismatches: %v", rep2.Errors, rep2.Mismatches, rep2.ErrorSamples)
	}

	// Restart; the prober must readmit.
	victim.restart()
	deadline = time.Now().Add(5 * time.Second)
	for {
		all := true
		for _, h := range rt.Snapshot() {
			if !h.Healthy {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never readmitted: %+v", rt.Snapshot())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Leg 3: the healed fleet answers identically to the pre-chaos legs.
	rep3 := loadgen.Run(loadgen.Options{Workers: 4, Repeats: 2, CheckBodies: true}, reqs)
	if rep3.Errors > 0 || rep3.Mismatches > 0 {
		t.Fatalf("healed fleet: %d errors %d mismatches: %v", rep3.Errors, rep3.Mismatches, rep3.ErrorSamples)
	}
	for key, h := range rep1.Hashes {
		if h2, ok := rep3.Hashes[key]; ok && h2 != h {
			t.Fatalf("query %q answered differently before and after chaos", key)
		}
	}

	// The fleet statsz still lists every replica and sums real traffic.
	status, body := get(t, router.URL+"/statsz")
	if status != http.StatusOK {
		t.Fatalf("fleet statsz: %d", status)
	}
	for _, want := range []string{`"replicas"`, `"fleet"`, `"Hits"`, `"reporting"`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("fleet statsz missing %s: %.300s", want, body)
		}
	}
}

// TestFleetChurnSoak is the elasticity soak: a mixed query stream runs
// while a fourth replica joins (warm-up, then traffic) and an original
// member drains and leaves — with zero client-visible errors, answers
// byte-identical to a static single-replica fleet, and final membership
// reflecting the churn. The ring-geometry side of the same churn (key
// movement bounded by the touched member's ~K/n share per step) is
// asserted over the actual member URLs.
func TestFleetChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test runs real load")
	}
	// The static reference leg: one replica, no router, no churn.
	static := httptest.NewServer(newReplicaServer(t))
	defer static.Close()

	var replicaURLs []string
	for i := 0; i < 3; i++ {
		s := httptest.NewServer(newReplicaServer(t))
		defer s.Close()
		replicaURLs = append(replicaURLs, s.URL)
	}
	joiner := httptest.NewServer(newReplicaServer(t))
	defer joiner.Close()

	rt, err := fleet.New(fleet.Options{
		Replicas:      replicaURLs,
		HedgeAfter:    300 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
		EjectAfter:    2,
		AdminToken:    "soak",
		DrainTimeout:  10 * time.Second,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	router := httptest.NewServer(rt)
	defer router.Close()

	reqs, err := loadgen.Scenario(loadgen.ScenarioOptions{
		BaseURL:  router.URL,
		Terrains: testTerrains(t),
		Count:    40,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Script the churn into the stream: the joiner is admitted after one
	// full pass, the victim drains out after two. Both actions run from
	// inside the load loop while the other workers keep traffic up.
	victim := replicaURLs[0]
	admin := &fleet.AdminClient{BaseURL: router.URL, Token: "soak"}
	var (
		addRes    fleet.AddResult
		removeRes fleet.RemoveResult
		addErr    error
		removeErr error
	)
	actions := []loadgen.Action{
		{AfterRequest: len(reqs), Run: func() { addRes, addErr = admin.Add(joiner.URL) }},
		{AfterRequest: 2 * len(reqs), Run: func() { removeRes, removeErr = admin.Remove(victim) }},
	}
	rep := loadgen.Run(loadgen.Options{Workers: 4, Repeats: 4, CheckBodies: true, Actions: actions}, reqs)

	// Zero client-visible errors and zero identity mismatches through
	// both membership changes.
	if rep.Errors > 0 {
		t.Fatalf("churn surfaced %d errors to clients: %v", rep.Errors, rep.ErrorSamples)
	}
	if rep.Mismatches > 0 {
		t.Fatalf("churn changed answers mid-stream: %d mismatches", rep.Mismatches)
	}
	if addErr != nil {
		t.Fatalf("mid-run add: %v", addErr)
	}
	if removeErr != nil {
		t.Fatalf("mid-run remove: %v", removeErr)
	}
	if !removeRes.Drained {
		t.Fatalf("victim left with %d requests in flight: %+v", removeRes.InflightAtDrop, removeRes)
	}
	// The joiner went through warm-up before serving: the burst replays
	// only keys the joiner will own, so it may be empty, but it must be
	// verified either way (real replicas report real cache counters).
	if !addRes.Warmup.Verified {
		t.Fatalf("joiner admitted with unverified warm-up: %+v", addRes.Warmup)
	}

	// Byte identity against the static leg: every query key must hash
	// identically to the single-replica answer.
	staticReqs, err := loadgen.Scenario(loadgen.ScenarioOptions{
		BaseURL:  static.URL,
		Terrains: testTerrains(t),
		Count:    40,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	staticRep := loadgen.Run(loadgen.Options{Workers: 4, Repeats: 1, CheckBodies: true}, staticReqs)
	if staticRep.Errors > 0 || staticRep.Mismatches > 0 {
		t.Fatalf("static leg: %d errors %d mismatches: %v", staticRep.Errors, staticRep.Mismatches, staticRep.ErrorSamples)
	}
	if len(rep.Hashes) != len(staticRep.Hashes) {
		t.Fatalf("leg coverage differs: %d keys routed, %d static", len(rep.Hashes), len(staticRep.Hashes))
	}
	for key, h := range rep.Hashes {
		sh, ok := staticRep.Hashes[key]
		if !ok {
			t.Fatalf("query %q missing from the static leg", key)
		}
		if sh != h {
			t.Fatalf("query %q answered differently through the churned fleet than by a single replica", key)
		}
	}

	// Final membership: the joiner is in, the victim is gone, everyone
	// left is active.
	m, err := admin.Membership()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Members) != 3 {
		t.Fatalf("final membership has %d members: %+v", len(m.Members), m.Members)
	}
	seen := map[string]string{}
	for _, mem := range m.Members {
		seen[mem.Addr] = mem.State
	}
	if _, there := seen[victim]; there {
		t.Fatalf("removed member still present: %+v", m.Members)
	}
	if st := seen[joiner.URL]; st != "active" {
		t.Fatalf("joiner state %q, want active (membership %+v)", st, m.Members)
	}

	// Ring geometry of the same churn, over the actual member URLs: the
	// add moves keys only to the joiner and at most ~K/n of them, the
	// remove moves only the victim's keys.
	ks := make([]string, 300)
	for i := range ks {
		ks[i] = fmt.Sprintf("terrain-%d", i)
	}
	before := fleet.NewRing(0)
	before.Add(replicaURLs...)
	afterAdd := fleet.NewRing(0)
	afterAdd.Add(replicaURLs...)
	afterAdd.Add(joiner.URL)
	movedByAdd := 0
	for _, k := range ks {
		if afterAdd.Lookup(k) != before.Lookup(k) {
			movedByAdd++
			if afterAdd.Lookup(k) != joiner.URL {
				t.Fatalf("key %q moved between old members on an add", k)
			}
		}
	}
	if movedByAdd > 2*len(ks)/4 {
		t.Fatalf("admitting a 4th member moved %d of %d keys; want ~K/4", movedByAdd, len(ks))
	}
	final := fleet.NewRing(0)
	final.Add(replicaURLs[1], replicaURLs[2], joiner.URL)
	movedByRemove := 0
	for _, k := range ks {
		if final.Lookup(k) != afterAdd.Lookup(k) {
			movedByRemove++
			if afterAdd.Lookup(k) != victim {
				t.Fatalf("key %q moved on a removal it was not placed on", k)
			}
		}
	}
	if movedByRemove > 2*len(ks)/4 {
		t.Fatalf("draining a member moved %d of %d keys; want ~K/4", movedByRemove, len(ks))
	}
}

// TestFleetReplicationIdentity runs a replicated (R=2) terrain end to end
// on real replicas: queries spread across both ring successors, both
// answer byte-identically (JSON normalized, SVG exact), and the router's
// /fleetz placement and serve ledger show both serving.
func TestFleetReplicationIdentity(t *testing.T) {
	var replicaURLs []string
	for i := 0; i < 3; i++ {
		s := httptest.NewServer(newReplicaServer(t))
		defer s.Close()
		replicaURLs = append(replicaURLs, s.URL)
	}
	rt, err := fleet.New(fleet.Options{
		Replicas:      replicaURLs,
		HedgeAfter:    -1,
		ProbeInterval: -1,
		Replication:   map[string]int{"alps": 2},
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	router := httptest.NewServer(rt)
	defer router.Close()

	reqs, err := loadgen.Scenario(loadgen.ScenarioOptions{
		BaseURL:  router.URL,
		Terrains: testTerrains(t),
		Count:    20,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, req := range reqs {
		if !strings.Contains(req.URL, "terrain=alps") {
			continue
		}
		checked++
		// The primary rotates through the two successors: four fetches see
		// both members, and every answer must normalize identically.
		servers := map[string]bool{}
		var norm []byte
		for i := 0; i < 4; i++ {
			resp, err := http.Get(req.URL)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("replicated query: %d: %s", resp.StatusCode, body)
			}
			servers[resp.Header.Get("X-HSR-Replica")] = true
			n := loadgen.NormalizeBody(body)
			if norm == nil {
				norm = n
			} else if !bytes.Equal(norm, n) {
				t.Fatalf("replicated query %q: successors answered different bytes", req.URL)
			}
		}
		if len(servers) != 2 {
			t.Fatalf("replicated query %q served by %d members over 4 fetches, want 2: %v", req.URL, len(servers), servers)
		}
		// SVG carries no volatile fields: exact byte identity across the
		// replica group.
		var svg []byte
		for i := 0; i < 4; i++ {
			_, body := get(t, req.URL+"&format=svg")
			if svg == nil {
				svg = body
			} else if !bytes.Equal(svg, body) {
				t.Fatalf("replicated query %q: SVG differs between successors", req.URL)
			}
		}
	}
	if checked == 0 {
		t.Fatal("scenario drew no alps queries; raise Count")
	}

	// The router's own ledger agrees: the replicated key is placed on two
	// members and both have served a nonzero share.
	status, body := get(t, router.URL+"/fleetz")
	if status != http.StatusOK {
		t.Fatalf("fleetz: %d", status)
	}
	var fz struct {
		Placement map[string][]string         `json:"placement"`
		KeyServes map[string]map[string]int64 `json:"key_serves"`
	}
	if err := json.Unmarshal(body, &fz); err != nil {
		t.Fatalf("fleetz parse: %v: %.300s", err, body)
	}
	if got := fz.Placement["alps"]; len(got) != 2 {
		t.Fatalf("placement for the replicated terrain = %v, want 2 members", got)
	}
	serves := fz.KeyServes["alps"]
	if len(serves) != 2 {
		t.Fatalf("key_serves for the replicated terrain = %v, want both successors", serves)
	}
	for addr, n := range serves {
		if n == 0 {
			t.Fatalf("successor %s served 0 of the replicated terrain: %v", addr, serves)
		}
	}
}
