// Command hsrbench prints the reproduction's experiment tables: the
// Theorem 3.1 time and work bounds (TH1, TH2), output sensitivity against
// the intersection count (TH3), Brent speedup (TH4), comparison with the
// sequential algorithm (TH5), the lemma-level costs (LM1, LM6), the
// structural figure analogues (FG1, FG2, FG3), the design ablations (A1,
// A2), and two serving-fleet runs: routed 3-replica throughput and tail
// latency against a single replica at an equal total worker budget, with
// byte-identical answers (F1), and throughput and tail latency before,
// during and after a scripted membership churn, with zero client-visible
// errors and unchanged answers (E1).
//
// The tables print measurements; the claims they illustrate are asserted
// by go test: internal/hsr's TestClaim* tests fit the exponents of
// Theorem 3.1 and of the figures. The engine's speed and memory are
// measured by hsrperf (bash hsrperf/run.sh), its byte identity by the
// root package's tests. ALGORITHM.md's experiment index maps every id,
// including the retired ones, to its check.
//
// Usage:
//
//	hsrbench [-exp all|TH1..TH5|LM1|LM6|FG1..FG3|A1|A2|F1|E1[,...]] [-quick]
//
// -exp accepts a comma-separated list; an unknown id exits 2 and lists the
// available ones.
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
	{"TH1", "Theorem 3.1 — parallel time (PRAM depth), split by phase", expTH1},
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
	{"F1", "Serving fleet — routed 3-replica throughput vs one replica at equal total workers", expFleet},
	{"E1", "Fleet elasticity — throughput before/during/after membership churn, zero errors", expElastic},
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (TH1..TH5, LM1, LM6, FG1..FG3, A1, A2, F1, E1) or 'all'")
	quick := flag.Bool("quick", false, "smaller sizes for a fast pass")
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
}
