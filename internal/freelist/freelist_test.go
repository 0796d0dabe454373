package freelist

import (
	"sync"
	"testing"
)

// TestListReusesIdleItems checks that Get hands back released items, last
// in first out, before it makes new ones, and that a warm Get/Put cycle
// allocates nothing.
func TestListReusesIdleItems(t *testing.T) {
	var l List[[64]byte]
	a, b := l.Get(), l.Get()
	if a == b {
		t.Fatal("two Gets with nothing idle returned the same item")
	}
	l.Put(a)
	l.Put(b)
	if len(l.free) != 2 {
		t.Fatalf("%d idle items, want 2", len(l.free))
	}
	if got := l.Get(); got != b {
		t.Fatal("Get did not return the last released item")
	}
	if got := l.Get(); got != a {
		t.Fatal("Get did not return the remaining idle item")
	}
	l.Put(a)
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); n != 0 {
		t.Fatalf("a warm Get/Put allocates %v times, want 0", n)
	}
}

// TestListConcurrent has goroutines share a list; every item is held by
// one goroutine at a time, and the list ends with at most one item per
// goroutine.
func TestListConcurrent(t *testing.T) {
	var l List[int]
	const goroutines, rounds = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				x := l.Get()
				*x = g
				if *x != g {
					t.Errorf("item shared between goroutines")
					return
				}
				l.Put(x)
			}
		}(g)
	}
	wg.Wait()
	if n := len(l.free); n < 1 || n > goroutines {
		t.Fatalf("%d idle items after %d goroutines, want 1..%d", n, goroutines, goroutines)
	}
}
