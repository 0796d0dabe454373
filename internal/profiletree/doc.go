// Package profiletree stores an upper profile in a persistent balanced tree
// whose subtrees carry the pruning summaries of the paper's augmented CG
// structure: coverage extent, z-range, internal-gap flag and (optionally)
// the lower and upper convex hulls of the subtree's vertices in persistent
// chains (package hull).
//
// The tree is a treap written for the one node type. It copies paths like
// the generic treap of package persist and draws its priorities from the
// same persist.Arena, but it computes each node's summary in place by a
// direct method instead of through an aggregate callback.
//
// This is the realization of the paper's "single ACG structure for all the
// profiles" of a PCT layer: profiles derived from one another by splicing
// share every untouched subtree — and with it the hull chains — so the
// storage for a layer is proportional to the new visible material, not to
// the summed profile sizes (Figures 1 and 3; experiment F3). A caller that
// keeps only the current profile, as the sequential sweep does, runs the
// same operations in place (Nodes.InPlace) and holds about one node per
// profile piece instead. A treap's shape is a function of its sequence and
// priorities, and a rewrite reuses the priority a copy would take, so both
// modes build the same shapes with the same summaries and allocation
// counts.
//
// Two pruning modes exist. With hulls enabled, the crossing test of Lemma
// 3.6 is exact in O(log) per node via tangent queries. With hulls disabled
// (the default for large runs), O(1) z-interval summaries give a
// conservative test that is cheaper by large constant factors; the A2
// ablation measures the difference. Both modes yield identical results.
package profiletree
