// Package terrainhsr is an object-space hidden-surface-removal library for
// polyhedral terrains, reproducing the output-size sensitive parallel
// algorithm of Gupta and Sen ("An Improved Output-size Sensitive Parallel
// Algorithm for Hidden-Surface Removal for Terrains", IPPS 1998).
//
// Given a terrain — a piecewise-linear surface z = f(x, y) — and a viewer
// at x = -inf looking in +x (or a finite perspective eye point), the library
// computes the combinatorial description of the visible scene: for every
// terrain edge, the maximal portions of its image-plane projection that are
// visible. The description is device independent and can be rendered at any
// resolution (see RenderSVG).
//
// The flagship solver is the paper's parallel algorithm: edges are ordered
// front to back, a Profile Computation Tree of upper envelopes is built
// bottom-up, and prefix envelopes are pushed top-down with Chazelle-Guibas
// style crossing queries against persistent profile trees, so that total
// work is proportional to (n + k) polylog n — n input edges, k visible
// output pieces — rather than to the number of pairwise edge crossings.
// Sequential and brute-force baselines are included for comparison and
// verification. Every exact solver emits the same bytes, so a default
// request names that answer and its plan runs the cheapest kernel,
// sequential-tree; ParallelHulls runs the paper's algorithm.
//
//	tr, _ := terrainhsr.Generate(terrainhsr.GenParams{Kind: "fractal", Rows: 64, Cols: 64, Seed: 42})
//	res, _ := terrainhsr.Solve(tr, terrainhsr.Options{})
//	fmt.Println(res.K(), "visible pieces from", res.N(), "edges")
//
// Every public entry point is a thin adapter over one internal layer,
// internal/engine: a planner inspects the request (terrain shape and
// size, eye count, options, forced-engine overrides) and produces an
// explainable plan — monolithic, tiled, batched, or batched-tiled, with
// the worker-budget split — and one executor runs it. The adapters scale
// the algorithm out in three directions. BatchSolver (with SolveBatch,
// SolveViewPath, Solver.SolveMany) solves one terrain from many
// perspective viewpoints — viewshed grids, flyover paths — amortizing
// topology, validation and tree-arena storage across frames. TiledSolver
// (with SolveTiled) partitions a massive grid terrain into row×col tiles,
// solves them band by band with occlusion culling against the accumulated
// silhouette, and merges a scene equivalent to the monolithic solve with
// peak memory proportional to one band of tiles. Server holds a registry
// of hot terrains and answers repeated viewshed Query requests through a
// sharded LRU result cache — viewpoints quantized to a configurable
// resolution, terrain replacements invalidated by epoch, concurrent
// identical queries coalesced into one solve — with each query's plan
// reported on the result and in ServerStats.Plans (cmd/hsrserved is the
// HTTP front end). SolveStream and its Solver/TiledSolver variants stream
// every visible piece to a PieceSink as it is produced — tiled plans
// flush each depth band as it completes — so a massive scene is consumed
// without ever being held in memory; Result.EachPiece walks a
// materialized scene with the same zero-copy discipline.
//
// Real-world elevation data enters through the persistence subsystem:
// BuildStore ingests an ESRI ASCII grid or SRTM .hgt DEM (internal/dem),
// builds a conservative level-of-detail pyramid in which every coarser
// surface lies on or above the finer ones (internal/lod — coarse
// viewsheds may hide but never falsely reveal), and writes an on-disk
// tiled store (internal/store) that Server.RegisterStore serves with lazy
// per-level paging: Query.ErrorBudget picks the coarsest admissible
// pyramid level, QueryProgressive streams a trustworthy coarse preview
// before the exact finest answer, and the finest level solves
// byte-identically to the directly ingested terrain (TerrainFromDEM).
//
// ALGORITHM.md maps the paper's phases, lemmas and data structures to the
// internal packages; docs/API.md is the task-oriented API guide with the
// engine and planner overview; cmd/hsrbench prints the reproduction's
// paper tables, and internal/hsr's TestClaim* tests assert their shapes.
package terrainhsr
