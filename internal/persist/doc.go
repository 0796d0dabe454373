// Package persist implements the path-copying persistent balanced tree the
// paper takes from Driscoll, Sarnak, Sleator and Tarjan ("Make the
// data-structures persistent", ref [6]) and uses to share the convex chains
// and visible portions of profiles across nodes of a PCT layer.
//
// The tree is a persistent treap over a sequence: nodes are immutable, every
// update (split/join) copies the O(log n) nodes along the affected path, and
// all older versions remain valid. Each node carries a user-defined subtree
// aggregate recomputed only for newly created nodes, which is how the
// profile tree maintains bounding summaries and convex hulls per subtree.
//
// Nodes are immutable only outside the in-place mode (Ops.InPlace). A
// caller that keeps just the current version of its trees, as the
// sequential sweep keeps just the current profile, may instead have the
// same operations rewrite the path nodes and recycle dropped nodes. A
// treap's shape is a pure function of its sequence and its priorities, and
// a rewrite reuses the priority a copy would take, so both modes build the
// same shapes with the same aggregates and the same allocation counts.
//
// Allocation is tracked per Arena. Arenas are confined to one goroutine
// (one per worker); persistent nodes, once created, are immutable and may be
// shared freely across goroutines.
package persist
