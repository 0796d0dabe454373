package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when a caller passes 0:
// the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clampWorkers normalizes a worker request against the amount of work.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForDynamic runs fn(worker, i) for every i in [0, n) with dynamic
// (work-stealing-ish) assignment in chunks, for irregular task sizes such as
// phase-2 node merges whose cost depends on the local output size. Worker 0
// runs on the calling goroutine; only workers 1..workers-1 get goroutines
// of their own.
func ForDynamic(workers, n, chunk int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if chunk < 1 {
		chunk = 1
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	d := &dynamic{n: n, chunk: chunk, fn: fn}
	d.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go d.worker(w)
	}
	// Wait even if worker 0 panics, so no helper outlives the call.
	defer d.wg.Wait()
	d.run(0)
}

// dynamic is the shared state of one ForDynamic call with several workers:
// the next unclaimed index and the helper goroutines' wait group.
type dynamic struct {
	next     atomic.Int64
	wg       sync.WaitGroup
	n, chunk int
	fn       func(worker, i int)
}

// worker runs a helper goroutine's share.
func (d *dynamic) worker(w int) {
	defer d.wg.Done()
	d.run(w)
}

// run claims chunks of indices until none is left.
func (d *dynamic) run(w int) {
	for {
		lo := int(d.next.Add(int64(d.chunk))) - d.chunk
		if lo >= d.n {
			return
		}
		for i := lo; i < min(lo+d.chunk, d.n); i++ {
			d.fn(w, i)
		}
	}
}
