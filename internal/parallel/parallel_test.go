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
