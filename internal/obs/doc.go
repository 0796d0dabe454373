// Package obs is the observability layer of the serving stack: per-query
// traces, a cost ledger attached to them, and lock-free latency histograms.
// It is deliberately tiny — standard library only, no exporters — because
// its job is to make the paper's central claim checkable per request in
// production: a query's charged work should track its output size k, not
// the scene complexity, and its wall time should decompose into stages
// (plan, cache, page-in wait, tile solve, envelope merge) whose durations
// sum to roughly the whole.
//
// # Traces
//
// A Tracer mints a *Trace for a head-sampled subset of queries (or for
// every query that arrives with an X-HSR-Trace header — the sampling
// decision is made once, at the head of the fleet, and propagates). A nil
// *Trace is the unsampled case and every method on it is a no-op, so the
// hot path stays allocation-free when a query is unsampled: callers hold a
// possibly-nil *Trace and call StartSpan/EndSpan unconditionally, guarding
// only attribute construction behind Sampled. Finished traces land in a
// bounded ring served by Tracer.ServeHTTP on GET /tracez (JSON, filterable
// by terrain and minimum duration).
//
// Spans cross process boundaries by value, not by wire protocol: a replica
// returns its finished spans in an X-HSR-Spans response header (the solve
// completes before the body is written, so the spans are complete in
// time), and the router grafts them under the hedge attempt that won.
//
// # Histograms
//
// Histogram is a fixed-size array of power-of-two latency buckets updated
// with a single atomic add — safe for concurrent writers, allocation-free
// on Observe. A Registry keys histograms by (stage, plan mode) and renders
// them in Prometheus text exposition format for GET /metricsz; snapshots
// marshal to JSON and ride in a replica's /statsz document
// (ServerStats.Stages), so a router merges them in the same pass
// (fleet.AggregateStats) that sums the replicas' counters.
//
// The invariant threaded through every tier: tracing on or off, sampled or
// not, solve bytes are byte-identical. Instrumentation only ever reads
// clocks and counters; it never influences a solve.
package obs
