// Command hsrperf is the repository's benchmark: it drives the serving
// surface in-process (serve.New(...).ServeHTTP over a terrainhsr.Server,
// no sockets) with a seeded closed loop of one client, checks every timed
// response byte for byte, and prints the end-to-end metrics of one
// workload, or — with --trace 1 — the per-layer metrics of a traced run.
// --steady N instead runs every workload N times, one process per seed,
// and summarizes the spread of each end-to-end metric. See README.md.
//
// Run it through run.sh, which builds it from the checkout's source:
//
//	bash hsrperf/run.sh --workload viewshed-warm --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func numCPU() int { return runtime.NumCPU() }

// machine describes where a result was measured.
func machine() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: viewshed-cold, viewshed-warm or flyover-session")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", 20, "serving time to measure, in seconds (whole passes over the request list)")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "hsrperf"), "directory for generated inputs, spans and results")
	steady := flag.Int("steady", 0, "run every workload (or --workload) this many times with successive seeds and summarize the spread")
	out := flag.String("out", "", "steadiness mode: also write the summary JSON here")
	flag.Parse()

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	if *steady > 0 {
		if err := steadiness(*name, *seed, *steady, *seconds, *out); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	work := filepath.Join(*dir, w.name)
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal(err)
	}
	o, err := run(w, *seed, *seconds, *trace == 1, work, os.Stderr)
	if err != nil {
		fatal(err)
	}
	m := machine()
	o.info["seed"] = *seed
	tag := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)
	if len(o.spans) > 0 {
		path := filepath.Join(work, "spans-"+tag+".jsonl")
		if err := writeSpans(path, o.spans); err != nil {
			fatal(err)
		}
		o.info["spans_file"] = path
	}
	record, err := json.MarshalIndent(map[string]any{
		"workload": w.name, "machine": m, "info": o.info,
		"attempted": o.attempted, "failed": o.failed, "metrics": o.metrics,
	}, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(work, "result-"+tag+".json"), record, 0o644); err != nil {
		fatal(err)
	}

	fmt.Printf("hsrperf %s seed=%d trace=%d\n", w.name, *seed, *trace)
	mj, _ := json.Marshal(m)
	fmt.Printf("machine %s\n", mj)
	for _, k := range sortedKeys(o.info) {
		v, _ := json.Marshal(o.info[k])
		fmt.Printf("info %s %s\n", k, v)
	}
	for _, k := range o.order {
		fmt.Printf("metric %-26s %14.6g %s\n", k, o.metrics[k].Value, o.metrics[k].Unit)
	}
	last, err := json.Marshal(map[string]any{
		"correct": o.failed == 0, "attempted": o.attempted, "failed": o.failed, "metrics": o.metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hsrperf:", err)
	os.Exit(1)
}
