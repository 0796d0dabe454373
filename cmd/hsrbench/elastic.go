package main

import (
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"time"

	terrainhsr "terrainhsr"
	"terrainhsr/internal/fleet"
	"terrainhsr/internal/loadgen"
	"terrainhsr/internal/metrics"
	"terrainhsr/internal/serve"
	"terrainhsr/internal/workload"
)

// expElastic: fleet elasticity (E1). The same zipf-skewed observer-grid
// stream is measured in three legs against a routed fleet: before any
// membership change, during a scripted churn (a fourth replica joins
// mid-stream — warm-up before traffic — and an original member drains
// and leaves), and after, on the changed membership. The hottest terrain
// runs at replication factor 2, so the leg also exercises primary
// rotation across a replica group. Reported: queries/sec and p50/p99 per
// leg, the during/before throughput ratio (the cost of churn itself),
// drain wait and warm-up size, a cross-leg body-identity check, and the
// replicated terrain's serve split across its two successors. The claim
// under measurement: membership is elastic — the fleet absorbs a join
// and a drain with zero client-visible errors, unchanged answers, and
// bounded throughput dip.
func expElastic(quick bool) {
	nTerrains, draws, repeats, size := 16, 300, 4, 32
	if quick {
		nTerrains, draws, repeats, size = 10, 150, 3, 24
	}
	clientWorkers := 3
	hot := "t00" // zipf rank 0: the hottest terrain gets R=2

	var named []loadgen.NamedTerrain
	served := make(map[string]*terrainhsr.Terrain, nTerrains)
	for i := 0; i < nTerrains; i++ {
		id := fmt.Sprintf("t%02d", i)
		p := workload.Params{Kind: workload.Fractal, Rows: size, Cols: size, Seed: int64(300 + i), Amplitude: 6}
		named = append(named, loadgen.NamedTerrain{ID: id, T: gen(p)})
		tr, err := terrainhsr.Generate(terrainhsr.GenParams{
			Kind: string(p.Kind), Rows: p.Rows, Cols: p.Cols, Seed: p.Seed, Amplitude: p.Amplitude,
		})
		if err != nil {
			log.Fatalf("hsrbench: generate %s: %v", id, err)
		}
		served[id] = tr
	}
	newReplica := func() *terrainhsr.Server {
		s := terrainhsr.NewServer(terrainhsr.ServerOptions{Resolution: 0.5})
		for id, tr := range served {
			if err := s.Register(id, tr); err != nil {
				log.Fatalf("hsrbench: register %s: %v", id, err)
			}
		}
		return s
	}

	const fleetSize = 3
	var urls []string
	for i := 0; i < fleetSize; i++ {
		srv := httptest.NewServer(serve.New(newReplica(), serve.Options{}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	joiner := httptest.NewServer(serve.New(newReplica(), serve.Options{}))
	defer joiner.Close()

	rt, err := fleet.New(fleet.Options{
		Replicas:      urls,
		HedgeAfter:    -1, // deterministic legs: only errors advance attempts
		ProbeInterval: -1,
		AdminToken:    "bench",
		DrainTimeout:  30 * time.Second,
		Replication:   map[string]int{hot: 2},
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		log.Fatalf("hsrbench: fleet router: %v", err)
	}
	rt.Start()
	defer rt.Close()
	routerSrv := httptest.NewServer(rt)
	defer routerSrv.Close()

	reqs, err := loadgen.Scenario(loadgen.ScenarioOptions{
		BaseURL:  routerSrv.URL,
		Terrains: named,
		Mix:      "grid",
		ZipfS:    1.1,
		Count:    draws,
		Seed:     23,
	})
	if err != nil {
		log.Fatalf("hsrbench: scenario: %v", err)
	}
	total := draws * repeats
	fmt.Printf("%d terrains (%dx%d), %d zipf draws x %d repeats, %d client workers; %s replicated x2\n",
		nTerrains, size, size, draws, repeats, clientWorkers, hot)
	fmt.Printf("churn: add %s after %d requests, drain %s after %d\n",
		joiner.URL, total/3, urls[0], 2*total/3)

	// One unmeasured warming pass, then the three measured legs. Identity
	// is asserted by unmeasured checking passes before and after the churn
	// — the hashing client costs CPU on the serving machine, so the timed
	// legs skip it (same protocol as F1).
	loadgen.Run(loadgen.Options{Workers: clientWorkers, Timeout: 5 * time.Minute}, reqs)
	checkBefore := loadgen.Run(loadgen.Options{
		Workers: clientWorkers, CheckBodies: true, Timeout: 5 * time.Minute,
	}, reqs)
	before := loadgen.Run(loadgen.Options{
		Workers: clientWorkers, Repeats: repeats, Timeout: 5 * time.Minute,
	}, reqs)

	admin := &fleet.AdminClient{BaseURL: routerSrv.URL, Token: "bench"}
	var (
		addRes      fleet.AddResult
		removeRes   fleet.RemoveResult
		churnErrors int
	)
	during := loadgen.Run(loadgen.Options{
		Workers: clientWorkers, Repeats: repeats, Timeout: 5 * time.Minute,
		Actions: []loadgen.Action{
			{AfterRequest: total / 3, Run: func() {
				var err error
				if addRes, err = admin.Add(joiner.URL); err != nil {
					churnErrors++
					log.Printf("hsrbench: E1 add: %v", err)
				}
			}},
			{AfterRequest: 2 * total / 3, Run: func() {
				var err error
				if removeRes, err = admin.Remove(urls[0]); err != nil {
					churnErrors++
					log.Printf("hsrbench: E1 remove: %v", err)
				}
			}},
		},
	}, reqs)

	after := loadgen.Run(loadgen.Options{
		Workers: clientWorkers, Repeats: repeats, Timeout: 5 * time.Minute,
	}, reqs)
	checkAfter := loadgen.Run(loadgen.Options{
		Workers: clientWorkers, CheckBodies: true, Timeout: 5 * time.Minute,
	}, reqs)

	// Identity across the membership change: every query key must hash
	// identically on the pre-churn and post-churn fleets.
	identityDiffs := checkBefore.Mismatches + checkAfter.Mismatches
	for key, h := range checkBefore.Hashes {
		if h2, ok := checkAfter.Hashes[key]; ok && h2 != h {
			identityDiffs++
		}
	}
	// The replicated terrain's load split. The serve ledger spans the whole
	// run (a drained ex-successor keeps its credit), so the R=2 assertion
	// reads the CURRENT placement group and checks both members served.
	hotServes := rt.KeyServes()[hot]
	hotGroup := rt.Placement()[hot]
	groupServing := 0
	hotSplit := make([]int64, 0, len(hotGroup))
	for _, addr := range hotGroup {
		hotSplit = append(hotSplit, hotServes[addr])
		if hotServes[addr] > 0 {
			groupServing++
		}
	}

	dip := 0.0
	if before.QPS > 0 {
		dip = during.QPS / before.QPS
	}
	tb := metrics.NewTable("leg", "qps", "p50", "p99", "errors", "wall")
	tb.AddRow("before", fmt.Sprintf("%.1f", before.QPS), ms(before.P50), ms(before.P99), before.Errors, ms(before.Wall))
	tb.AddRow("during-churn", fmt.Sprintf("%.1f", during.QPS), ms(during.P50), ms(during.P99), during.Errors, ms(during.Wall))
	tb.AddRow("after", fmt.Sprintf("%.1f", after.QPS), ms(after.P50), ms(after.P99), after.Errors, ms(after.Wall))
	tb.Render(os.Stdout)
	fmt.Printf("churn leg at %.2fx of steady qps; add warm-up %d keys %d requests (verified=%v); drain waited %.0fms (drained=%v)\n",
		dip, addRes.Warmup.Keys, addRes.Warmup.Requests, addRes.Warmup.Verified, removeRes.WaitedMS, removeRes.Drained)
	fmt.Printf("cross-churn identity diffs %d over %d keys; %s group of %d serving from %d members %v; churn errors %d\n",
		identityDiffs, len(checkBefore.Hashes), hot, len(hotGroup), groupServing, hotSplit, churnErrors)
}
