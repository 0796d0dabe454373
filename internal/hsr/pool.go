package hsr

import (
	"slices"
	"sync"

	"terrainhsr/internal/persist"
	"terrainhsr/internal/profiletree"
)

// pool is the tree-arena workspace of every solve in the process: the
// per-worker profile-tree operations (treap arenas, node slabs and
// crossing-query scratch) that ParallelOS and SequentialTree build their
// profiles in. A fresh Ops would allocate its tree nodes and query buffers
// anew and drop them all when the solve returns; for a stream of solves
// that garbage dominates the running time. The pool instead hands each
// solve previously used Ops whose slabs are rewound (profiletree.Ops.Reset)
// and whose scratch keeps its capacity, so steady-state Phase 2 work
// allocates almost nothing.
//
// What a pooled Ops retains — slabs and scratch alike — is bounded by the
// largest solve, and the largest query, it has served. For a ParallelOS
// solve that is every node its path copies made; sequential-tree runs its
// tree in place, so there it is bounded by the largest profile (plus one run
// batch). The pool holds at most as many Ops as were ever in use at once,
// and keeps them across garbage collections: it is a free list, not a
// sync.Pool, which would drop its contents at every collection and miss
// whenever a goroutine asks from another P than the one that released.
//
// Acquired Ops are always in the persistent mode (profiletree.Ops.Reset
// clears the in-place mode a sequential-tree solve sets), so a ParallelOS
// solve after a sequential-tree one shares profiles as usual. Ops are keyed
// by the WithHulls mode, since hull aggregation is baked into an Ops at
// construction.
//
// A pooled Ops arrives with whatever priority-stream state its history left
// behind, and which Ops a solve receives depends on what else is in flight.
// Solvers therefore Reseed the arena from their own task identity before
// building trees — treap shape feeds back into the solved bytes through
// epsilon-close query pruning, and answers must not vary with pool history
// or concurrency.
var pool opsPool

// opsPool is a mutex-guarded free list of Ops per hull mode. The Ops it
// hands out are each confined to one goroutine for the duration of a solve.
type opsPool struct {
	mu   sync.Mutex
	free [2][]*profiletree.Ops
	seq  uint64
}

func hullIdx(withHulls bool) int {
	if withHulls {
		return 1
	}
	return 0
}

// acquire appends n reset Ops for the given pruning mode to dst and
// returns the extended slice, creating any the pool cannot satisfy from
// its free list. A caller that needs one Ops passes a one-element array's
// empty slice, so acquiring allocates nothing once the pool is warm.
func (p *opsPool) acquire(dst []*profiletree.Ops, n int, withHulls bool) []*profiletree.Ops {
	idx := hullIdx(withHulls)
	out := slices.Grow(dst, n)
	p.mu.Lock()
	free := p.free[idx]
	for len(out)-len(dst) < n && len(free) > 0 {
		o := free[len(free)-1]
		free = free[:len(free)-1]
		out = append(out, o)
	}
	p.free[idx] = free
	for len(out)-len(dst) < n {
		p.seq++
		seed := 0x5eed + p.seq*0x9e37
		out = append(out, profiletree.NewOps(persist.NewArena(seed), withHulls))
	}
	p.mu.Unlock()
	for _, o := range out[len(dst):] {
		o.Reset()
	}
	return out
}

// release returns Ops to the pool. The caller must have dropped every
// reference to trees built through them: the next acquire rewinds their
// slabs and overwrites the nodes.
func (p *opsPool) release(ops []*profiletree.Ops) {
	if len(ops) == 0 {
		return
	}
	for _, o := range ops {
		o.Edges = nil // drop the solve's edge table
	}
	idx := hullIdx(ops[0].WithHulls)
	p.mu.Lock()
	p.free[idx] = append(p.free[idx], ops...)
	p.mu.Unlock()
}
