// Package persist implements the path-copying persistent balanced tree the
// paper takes from Driscoll, Sarnak, Sleator and Tarjan ("Make the
// data-structures persistent", ref [6]) and uses to share the convex chains
// of profiles across nodes of a PCT layer.
//
// The tree is a persistent treap over a sequence: nodes are immutable, every
// update (split/join) copies the O(log n) nodes along the affected path, and
// all older versions remain valid. Each node carries a user-defined subtree
// aggregate recomputed only for newly created nodes; the hull chains (package
// hull) keep their end points that way.
//
// The trees here are persistent only, and they hold the hull chains. The
// profiles have a treap of their own (package profiletree) that follows the
// same discipline, draws its priorities from the same Arena, computes its
// summaries without a callback and can also run in place.
//
// Allocation is tracked per Arena. Arenas are confined to one goroutine
// (one per worker); persistent nodes, once created, are immutable and may be
// shared freely across goroutines.
package persist
