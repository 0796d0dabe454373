package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// steadiness runs each workload (or just the named one) `runs` times, one
// process per seed (seed, seed+1, ...), as separate invocations would, and
// prints for every end-to-end metric its median, quartiles, min, max and
// quartile spread as a share of the median. The summary is the evidence
// behind the bounds in BENCHMARK.json.
func steadiness(only string, seed int64, runs int, seconds float64, out string) error {
	if runs < 2 {
		return fmt.Errorf("steadiness needs at least 2 runs, got %d", runs)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	summary := map[string]any{"machine": machine(), "runs": runs, "seconds": seconds, "first_seed": seed}
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		values := map[string][]float64{}
		units := map[string]string{}
		var seeds []int64
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			t0 := time.Now()
			res, err := runChild(self, w.name, s, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s seed %d: %d of %d responses failed", w.name, s, res.Failed, res.Attempted)
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			seeds = append(seeds, s)
			fmt.Fprintf(os.Stderr, "hsrperf: %s seed %d done in %.1fs\n", w.name, s, time.Since(t0).Seconds())
		}
		rows := map[string]any{}
		for _, k := range sortedKeys(values) {
			xs := append([]float64(nil), values[k]...)
			q1, q2, q3 := quartiles(xs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			rows[k] = map[string]any{
				"unit": units[k], "median": q2, "q1": q1, "q3": q3,
				"min": xs[0], "max": xs[len(xs)-1], "spread": spread, "values": values[k],
			}
			fmt.Printf("steady %-16s %-18s median %12.6g  q1 %12.6g  q3 %12.6g  min %12.6g  max %12.6g  spread %6.2f%%\n",
				w.name, k, q2, q1, q3, xs[0], xs[len(xs)-1], 100*spread)
		}
		summary[w.name] = map[string]any{"seeds": seeds, "metrics": rows}
	}
	if out == "" {
		return nil
	}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// childResult is the last line a run prints.
type childResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runChild runs one untraced measurement in a fresh process and parses its
// result line.
func runChild(self, name string, seed int64, seconds float64) (*childResult, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	return &res, nil
}
