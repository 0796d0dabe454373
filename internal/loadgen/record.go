package loadgen

import (
	"encoding/json"
	"os"
	"runtime"
)

// Record is one machine-readable measurement row, the shape hsrload -json
// writes: the experiment and variant a run is stamped with, its wall
// clock, its client worker count, and the report's rates and latency
// percentiles in Extra.
type Record struct {
	// Experiment is the experiment id and Variant the measured
	// configuration inside it (e.g. "soak", "fleet-3").
	Experiment string `json:"experiment"`
	Variant    string `json:"variant"`
	// WallMS is the measured wall clock in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Workers is the worker budget the variant ran under.
	Workers int `json:"workers"`
	// Extra holds the run's scalars (rates, counts, latency percentiles).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Record converts the report to one measurement row. Workers 0 records
// GOMAXPROCS.
func (r Report) Record(experiment, variant string, workers int) Record {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errRate := 0.0
	if r.Requests > 0 {
		errRate = float64(r.Errors) / float64(r.Requests)
	}
	return Record{
		Experiment: experiment,
		Variant:    variant,
		WallMS:     float64(r.Wall.Microseconds()) / 1000,
		Workers:    workers,
		Extra: map[string]float64{
			"queries_per_sec": r.QPS,
			"requests":        float64(r.Requests),
			"errors":          float64(r.Errors),
			"error_rate":      errRate,
			"p50_ms":          float64(r.P50.Microseconds()) / 1000,
			"p90_ms":          float64(r.P90.Microseconds()) / 1000,
			"p99_ms":          float64(r.P99.Microseconds()) / 1000,
			"max_ms":          float64(r.Max.Microseconds()) / 1000,
			"mismatches":      float64(r.Mismatches),
		},
	}
}

// WriteRecords writes the records to path as indented JSON (an empty
// array, not null, when there are none).
func WriteRecords(path string, records []Record) error {
	if records == nil {
		records = []Record{}
	}
	buf, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(path, buf, 0o644)
}
