// Command hsrbench regenerates every experiment table of the reproduction
// (see DESIGN.md section 4 and EXPERIMENTS.md): the Theorem 3.1 time and
// work bounds (TH1, TH2), output sensitivity against the intersection count
// (TH3), Brent speedup (TH4), comparison with the sequential algorithm
// (TH5), the lemma-level costs (LM1, LM6), the structural figure analogues
// (FG1, FG2, FG3), the design ablations (A1, A2), and the engine experiments:
//
// batched multi-viewpoint solving (B1), tiled solving of massive terrains
// (T1), the cached viewshed query service (S1), streaming piece emission
// (ST1), the level-of-detail store pyramid (L1), the out-of-core engine
// (OC1), the serving fleet (F1): routed 3-replica throughput and tail
// latency against a single replica at an equal total worker budget, with
// byte-identical answers, and fleet elasticity (E1): throughput and tail
// latency before, during and after a scripted membership churn — a replica
// joins through warm-up and another drains out mid-stream — with zero
// client-visible errors and unchanged answers, and frame-coherent sessions
// (FC1): a sessioned flyover (replay on dwelling eyes, cone-verified tile
// verdict reuse on moving ones) against independent per-frame solves of the
// same path, with every frame byte-identical between the legs, and
// observability overhead (OB1): the S1 warm-cache stream traced at a 1-in-16
// sampling rate with per-stage histograms against the identical untraced
// stream — asserting <= 5% overhead and byte-identical answers.
//
// Usage:
//
//	hsrbench [-exp all|TH1..TH5|LM1|LM6|FG1..FG3|A1|A2|B1|T1|S1|ST1|L1|OC1|F1|E1|FC1|OB1|CHECK[,...]]
//	         [-quick] [-json BENCH_PR10.json]
//
// -exp accepts a comma-separated list. -json writes the machine-readable
// measurement records of the engine experiments (experiment id, wall
// clock, peak heap, allocation volume, workers) as a JSON array — the
// artifact CI uploads to track the performance trajectory.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type experiment struct {
	name  string
	title string
	run   func(quick bool)
}

var experiments = []experiment{
	{"TH1", "Theorem 3.1 — parallel time (PRAM depth) is polylogarithmic", expTH1},
	{"TH2", "Theorem 3.1 — work is O((n+k) polylog n)", expTH2},
	{"TH3", "Output sensitivity — work tracks k, not the crossing count I", expTH3},
	{"TH4", "Lemma 2.1 — Brent speedup with p processors", expTH4},
	{"TH5", "Remark — parallel work within a polylog factor of sequential", expTH5},
	{"LM1", "Lemma 3.1 — profile construction cost", expLM1},
	{"LM6", "Lemmas 3.2/3.6 — intersection query cost", expLM6},
	{"FG1", "Figure 1 — profile sharing across PCT layers", expFG1},
	{"FG2", "Figure 2 — CG search structure shape", expFG2},
	{"FG3", "Figure 3 — persistence vs copying storage", expFG3},
	{"A1", "Ablation — persistent splicing vs profile copying", expA1},
	{"A2", "Ablation — hull-augmented (ACG) vs summary pruning", expA2},
	{"B1", "Batch engine — multi-viewpoint flyover throughput and amortization", expB1},
	{"T1", "Tiled engine — massive-terrain wall clock, peak memory and equivalence", expT1},
	{"S1", "Query service — cached viewshed throughput and hit rate on an observer-grid stream", expS1},
	{"ST1", "Streaming emission — peak heap of streamed vs materialized massive solves", expST1},
	{"L1", "LOD store — coarse-level speedup, finest exactness, conservative occluders", expL1},
	{"OC1", "Out-of-core engine — paged solve exactness, bytes never read, peak heap", expOC1},
	{"F1", "Serving fleet — routed 3-replica throughput vs one replica at equal total workers", expFleet},
	{"E1", "Fleet elasticity — throughput before/during/after membership churn, zero errors", expElastic},
	{"FC1", "Frame-coherent sessions — sessioned vs independent flyover frames, byte-identical", expFC1},
	{"OB1", "Observability overhead — traced vs untraced warm-cache stream, byte-identical", expOB1},
	{"CHECK", "Automated reproduction gate — asserts every claim's shape", expCheck},
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (TH1..TH5, LM1, LM6, FG1..FG3, A1, A2, B1, T1, S1, ST1, L1, OC1, F1, E1, FC1, OB1, CHECK) or 'all'")
	quick := flag.Bool("quick", false, "smaller sizes for a fast pass")
	jsonPath := flag.String("json", "", "write machine-readable measurement records to this file (e.g. BENCH_PR4.json)")
	flag.Parse()

	wanted := make(map[string]bool)
	for _, w := range strings.Split(strings.ToUpper(*expFlag), ",") {
		if w = strings.TrimSpace(w); w != "" {
			wanted[w] = true
		}
	}
	if len(wanted) == 0 {
		fmt.Fprintf(os.Stderr, "empty -exp value; pass experiment ids or 'all'\n")
		os.Exit(2)
	}
	names := make([]string, 0, len(experiments))
	for _, e := range experiments {
		names = append(names, e.name)
		if wanted["ALL"] || wanted[e.name] {
			fmt.Printf("== %s: %s ==\n", e.name, e.title)
			e.run(*quick)
			fmt.Println()
			delete(wanted, e.name)
		}
	}
	delete(wanted, "ALL")
	if len(wanted) > 0 {
		unknown := make([]string, 0, len(wanted))
		for w := range wanted {
			unknown = append(unknown, w)
		}
		sort.Strings(unknown)
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "unknown experiment(s) %s; available: %s, all\n",
			strings.Join(unknown, ", "), strings.Join(names, ", "))
		os.Exit(2)
	}
	if *jsonPath != "" {
		if err := writeRecords(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "hsrbench: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
}
