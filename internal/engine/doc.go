// Package engine is the single query-planning and execution layer behind
// every public solve path of the terrainhsr module. The public surface —
// Solve/Solver, BatchSolver, TiledSolver, and Server — are thin adapters
// that all build one Request, ask Executor.Plan for an explainable Plan,
// and hand the plan back to the Executor. A plan records three choices —
// Tiled (banded, or one piece), Paged (heights page in from a store) and
// Session (frames of a flyover, warm-started) — with the worker-budget
// split and tile-grid shape; Plan.Mode names the combination in the wire
// vocabulary (monolithic, tiled, batched, batched-tiled, out-of-core,
// coherent). There is exactly one place that decides how a query runs and
// exactly one place that runs it.
//
// The layer owns three responsibilities that used to be re-implemented by
// each entry point:
//
//   - Routing. Executor.Plan inspects the terrain's shape and size, the
//     eye count and the tiled-routing threshold (the adapters pin theirs:
//     -1 never tiles, 1 always tiles a grid), and records every decision
//     as a human-readable reason; Plan.Explain surfaces them to operators
//     (ServerStats, /statsz). LevelSet.PlanLevel puts the LOD level pick
//     in front of it; SingleLevel wraps a terrain without a pyramid, so the
//     server plans every registration one way.
//   - Scheduling. SplitBudget divides one worker budget between concurrent
//     frames and intra-frame workers; Frames runs the per-frame closures
//     with deterministic error propagation (the failure with the lowest
//     frame index always wins, regardless of goroutine timing).
//   - Emission. Run materializes per-frame hsr.Results; RunStream instead
//     hands visible pieces to a Sink as they are produced — for tiled plans
//     each depth band is flushed as soon as it completes, so the full
//     visible scene is never held twice (nor, for tiled plans, even once).
//
// The executor also owns the per-terrain amortized state the adapters used
// to carry individually: the canonical-view depth order (hsr.Prepare) and
// the tile partition. The profile-tree arenas are the kernels' own: package
// hsr recycles them through one pool that every executor's solves share.
// Every algorithm solves a prepared depth order through Dispatch: the
// canonical view the cached one, a monolithic perspective frame one
// prepared in a pooled hsr.PrepareArena, and a tile the one its set-up
// arena prepared (see TileSolver). Every tiled plan
// — in-core, out-of-core, or a session frame — runs the one banded
// pipeline, tile.Solve, over the lattice the executor picks per frame: the
// resident terrain (perspective-transformed for the frame) or the paged
// grid seen through the frame's view. An in-core perspective frame maps
// its vertices into a pooled frame arena that lives until the frame's
// solve returns; a Result the executor returns never points into an arena
// (a monolithic frame copies its Result out once).
package engine
