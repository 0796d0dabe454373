package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of finite latency buckets. Bucket 0 holds
// observations under a microsecond; bucket i (i >= 1) holds observations
// in [2^(i-1), 2^i) microseconds; one extra overflow bucket catches
// everything past the last finite bound (~2.2 minutes).
const NumBuckets = 28

// Histogram is a lock-free log-bucketed latency histogram: Observe is one
// atomic add into a power-of-two bucket plus count/sum updates, safe for
// any number of concurrent writers and allocation-free. A nil *Histogram
// ignores observations.
type Histogram struct {
	buckets [NumBuckets + 1]atomic.Uint64
	count   atomic.Uint64
	sumNS   atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	us := uint64(d.Microseconds())
	b := bits.Len64(us) // 0 for 0µs, k for [2^(k-1), 2^k)
	if b > NumBuckets {
		b = NumBuckets
	}
	return b
}

// BucketUpper returns the exclusive upper bound of finite bucket i.
// Bucket 0 is bounded by one microsecond; bucket i by 2^i microseconds.
func BucketUpper(i int) time.Duration {
	return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
}

// Observe records one duration. Negative durations count into bucket 0.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(d.Nanoseconds())
}

// Snapshot copies the histogram's current state. The copy is not atomic
// across buckets — concurrent observations may straddle it — but every
// bucket value is itself consistent, which is all a scrape needs.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Buckets: make([]uint64, NumBuckets+1)}
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNS = h.sumNS.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, the unit of
// cross-process aggregation: replicas serve snapshots as JSON and the
// router merges them.
type HistSnapshot struct {
	// Buckets holds one count per bucket; the final entry is the overflow
	// bucket.
	Buckets []uint64 `json:"buckets"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// SumNS is the sum of all observed durations in nanoseconds.
	SumNS int64 `json:"sum_ns"`
}

// Merge adds o's observations into s (element-wise bucket addition —
// log-bucketed histograms merge exactly).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if len(s.Buckets) < NumBuckets+1 {
		b := make([]uint64, NumBuckets+1)
		copy(b, s.Buckets)
		s.Buckets = b
	}
	for i, v := range o.Buckets {
		if i < len(s.Buckets) {
			s.Buckets[i] += v
		}
	}
	s.Count += o.Count
	s.SumNS += o.SumNS
}

// Quantile estimates the q-quantile (0 < q <= 1) by walking the cumulative
// bucket counts and interpolating linearly within the bucket that crosses
// the target rank. Estimates are bounded by the bucket's bounds, so the
// error is at most a factor of two; an empty snapshot reports zero.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			idx := i
			if idx > NumBuckets {
				idx = NumBuckets
			}
			var lo time.Duration
			if idx > 0 {
				lo = BucketUpper(idx - 1)
			}
			hi := BucketUpper(idx)
			frac := (target - cum) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum = next
	}
	return BucketUpper(NumBuckets)
}

// Mean returns the snapshot's mean duration, zero when empty.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / int64(s.Count))
}

// Registry keys histograms by (stage, plan mode) and renders them for
// /metricsz. Every query server and router owns one; there is no disabled
// state to branch on.
type Registry struct {
	mu    sync.RWMutex
	hists map[histKey]*Histogram
}

// histKey identifies one histogram series.
type histKey struct{ stage, mode string }

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{hists: make(map[histKey]*Histogram)}
}

// Hist returns the histogram for (stage, mode), creating it on first use.
// The fast path is a read-locked map lookup with a struct key — no
// allocation — so callers may resolve per observation.
func (r *Registry) Hist(stage, mode string) *Histogram {
	k := histKey{stage, mode}
	r.mu.RLock()
	h := r.hists[k]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[k]; h == nil {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// Observe records one duration into the (stage, mode) series.
func (r *Registry) Observe(stage, mode string, d time.Duration) {
	r.Hist(stage, mode).Observe(d)
}

// HistEntry is one labeled histogram in a registry snapshot.
type HistEntry struct {
	// Stage labels the pipeline stage (see the Stage constants).
	Stage string `json:"stage"`
	// Mode labels the engine plan mode the query ran under.
	Mode string `json:"mode"`
	// Hist is the series' snapshot.
	Hist HistSnapshot `json:"hist"`
}

// RegistrySnapshot is a point-in-time copy of a whole registry, ordered by
// (stage, mode). It is the JSON body of /metricsz?format=json and the
// Stages field of a replica's /statsz document, which the router merges
// across replicas.
type RegistrySnapshot struct {
	// Hists lists every series, sorted by stage then mode.
	Hists []HistEntry `json:"hists"`
}

// Snapshot copies every series in the registry.
func (r *Registry) Snapshot() RegistrySnapshot {
	var s RegistrySnapshot
	r.mu.RLock()
	for k, h := range r.hists {
		s.Hists = append(s.Hists, HistEntry{Stage: k.stage, Mode: k.mode, Hist: h.Snapshot()})
	}
	r.mu.RUnlock()
	s.sort()
	return s
}

func (s *RegistrySnapshot) sort() {
	sort.Slice(s.Hists, func(i, j int) bool {
		if s.Hists[i].Stage != s.Hists[j].Stage {
			return s.Hists[i].Stage < s.Hists[j].Stage
		}
		return s.Hists[i].Mode < s.Hists[j].Mode
	})
}

// Merge folds o's series into s, summing series that share (stage, mode)
// and keeping the result sorted — the histogram analogue of the fleet's
// AggregateStats counter merge.
func (s *RegistrySnapshot) Merge(o RegistrySnapshot) {
	byKey := make(map[histKey]int, len(s.Hists))
	for i, e := range s.Hists {
		byKey[histKey{e.Stage, e.Mode}] = i
	}
	for _, e := range o.Hists {
		k := histKey{e.Stage, e.Mode}
		if i, ok := byKey[k]; ok {
			s.Hists[i].Hist.Merge(e.Hist)
			continue
		}
		cp := e
		cp.Hist.Buckets = append([]uint64(nil), e.Hist.Buckets...)
		byKey[k] = len(s.Hists)
		s.Hists = append(s.Hists, cp)
	}
	s.sort()
}

// MetricFamily is the Prometheus metric family name under which stage
// latency histograms are exposed on /metricsz.
const MetricFamily = "hsr_stage_duration_seconds"

// WritePrometheus renders the snapshot in Prometheus text exposition
// format (version 0.0.4) under the given family name, with stage and mode
// labels plus any extra constant labels, cumulative le buckets, _sum and
// _count series.
func (s RegistrySnapshot) WritePrometheus(w io.Writer, family string, constLabels ...Attr) {
	fmt.Fprintf(w, "# HELP %s Stage latency by engine plan mode.\n", family)
	fmt.Fprintf(w, "# TYPE %s histogram\n", family)
	var extra string
	for _, a := range constLabels {
		extra += fmt.Sprintf(",%s=%q", a.K, a.V)
	}
	for _, e := range s.Hists {
		labels := fmt.Sprintf("stage=%q,mode=%q%s", e.Stage, e.Mode, extra)
		var cum uint64
		for i, c := range e.Hist.Buckets {
			cum += c
			if i <= NumBuckets && i < len(e.Hist.Buckets)-1 {
				le := strconv.FormatFloat(BucketUpper(i).Seconds(), 'g', -1, 64)
				fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", family, labels, le, cum)
			}
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", family, labels, cum)
		fmt.Fprintf(w, "%s_sum{%s} %s\n", family, labels,
			strconv.FormatFloat(time.Duration(e.Hist.SumNS).Seconds(), 'g', -1, 64))
		fmt.Fprintf(w, "%s_count{%s} %d\n", family, labels, e.Hist.Count)
	}
}

// ServeHTTP serves the registry (the /metricsz endpoint); see
// RegistrySnapshot.Serve.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.Snapshot().Serve(w, req)
}

// Serve renders the snapshot as a /metricsz response: Prometheus text
// under MetricFamily by default, the JSON snapshot with ?format=json.
func (s RegistrySnapshot) Serve(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WritePrometheus(w, MetricFamily)
}
