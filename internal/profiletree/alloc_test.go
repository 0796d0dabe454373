package profiletree

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestEvalDoesNotAllocate: Eval runs once per vertical-image segment of
// every solve, so its descent must stay on the stack.
func TestEvalDoesNotAllocate(t *testing.T) {
	o := newOps(false)
	tr := o.FromProfile(randProfile(rand.New(rand.NewSource(2)), 40))
	lo, hi := tr.Root.Agg.X1, tr.Root.Agg.X2
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		for x := lo - 1; x <= hi+1; x += (hi - lo) / 50 {
			z, _ := o.Eval(tr, x)
			sink += z
		}
	})
	if allocs != 0 {
		t.Fatalf("Eval allocated %.1f times per run, want 0", allocs)
	}
	_ = sink
}

// TestNodeSize pins the default profile-tree node: the hull chains hang
// behind one pointer that is nil outside hull mode, so a node costs at most
// 120 bytes (it was 144 with the chains inline).
func TestNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 120 {
		t.Fatalf("profile-tree node is %d bytes, want at most 120", size)
	}
}
