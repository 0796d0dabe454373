package parallel

import (
	"runtime"
	"sync"
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
// phase-2 node merges whose cost depends on the local output size.
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
	var next int64
	var mu sync.Mutex
	grab := func() (int, int) {
		mu.Lock()
		lo := int(next)
		next += int64(chunk)
		mu.Unlock()
		if lo >= n {
			return 0, 0
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				lo, hi := grab()
				if lo == hi {
					return
				}
				for i := lo; i < hi; i++ {
					fn(w, i)
				}
			}
		}(w)
	}
	wg.Wait()
}
