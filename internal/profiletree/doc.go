// Package profiletree stores an upper profile in a persistent balanced tree
// whose subtrees carry the pruning summaries of the paper's augmented CG
// structure: coverage extent, z-range, internal-gap flag and (optionally)
// the lower and upper convex hulls of the subtree's vertices in persistent
// chains (package hull).
//
// This is the realization of the paper's "single ACG structure for all the
// profiles" of a PCT layer: profiles derived from one another by splicing
// share every untouched subtree — and with it the hull chains — so the
// storage for a layer is proportional to the new visible material, not to
// the summed profile sizes (Figures 1 and 3; experiment F3). A caller that
// keeps only the current profile, as the sequential sweep does, runs the
// same operations in place (persist.Ops.InPlace) and holds about one node
// per profile piece instead.
//
// Two pruning modes exist. With hulls enabled, the crossing test of Lemma
// 3.6 is exact in O(log) per node via tangent queries. With hulls disabled
// (the default for large runs), O(1) z-interval summaries give a
// conservative test that is cheaper by large constant factors; the A2
// ablation measures the difference. Both modes yield identical results.
package profiletree
