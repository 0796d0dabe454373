// Package parallel provides the goroutine-level execution primitive the
// algorithms run on: a bounded worker pool over an index range, handing
// out indices in chunks as workers free up (ForDynamic).
//
// It is the physical counterpart of the paper's PRAM: the PRAM cost
// model (package pram) accounts for idealized processors, while this package
// actually executes phases on up to runtime.NumCPU() cores. Each worker
// receives a worker id so callers can maintain per-worker state (operation
// counters, treap arenas) without synchronization.
//
// Paper correspondence: the bounded pools realize Lemma 2.1 (Brent's
// slow-down: p physical processors emulate the PRAM's virtual ones) for
// the layer-parallel phases of section 3.
package parallel
