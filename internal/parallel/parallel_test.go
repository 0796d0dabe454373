package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForDynamicCoversAll(t *testing.T) {
	n := 250
	hits := make([]int32, n)
	ForDynamic(6, n, 7, func(w, i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestClampWorkers(t *testing.T) {
	if w := clampWorkers(0, 10); w < 1 {
		t.Fatal("default workers must be >= 1")
	}
	if w := clampWorkers(64, 3); w != 3 {
		t.Fatalf("workers should clamp to n, got %d", w)
	}
	if w := clampWorkers(-2, 0); w != 1 {
		t.Fatalf("workers should clamp to 1, got %d", w)
	}
}

// TestForDynamicWorkers checks that every worker id is in range and that
// worker 0 runs on the calling goroutine: a run over 2 workers allocates
// twice on go1.24 (the shared state and the one helper goroutine's call),
// where starting a goroutine per worker with its own closures, mutex and
// claim function allocated 8 times.
func TestForDynamicWorkers(t *testing.T) {
	var seen [4]atomic.Int32
	ForDynamic(4, 400, 3, func(w, _ int) {
		if w < 0 || w >= len(seen) {
			t.Errorf("worker id %d out of range", w)
			return
		}
		seen[w].Add(1)
	})
	if seen[0].Load() == 0 {
		t.Error("worker 0 ran no task")
	}
	n := testing.AllocsPerRun(50, func() {
		ForDynamic(2, 64, 1, func(_, _ int) {})
	})
	t.Logf("2 workers: %v allocations per call", n)
	if n > 2 {
		t.Fatalf("2 workers allocate %v times per call, ceiling 2", n)
	}
}
