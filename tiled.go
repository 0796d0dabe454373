package terrainhsr

import (
	"fmt"

	"terrainhsr/internal/engine"
	"terrainhsr/internal/tile"
)

// This file is the public adapter of the tiled solve pipeline for massive
// terrains: the terrain is partitioned into row×col tiles (package
// internal/tile), every tile is solved independently by the ordinary
// algorithms, and the per-tile answers are merged front to back through an
// accumulated silhouette envelope. The visible scene is equivalent to the
// monolithic solve — same pieces up to float tolerance at piece boundaries —
// while peak memory scales with one band of tiles instead of the whole
// terrain, and tiles that are entirely hidden behind nearer terrain are
// culled without being solved at all. Routing, frame scheduling and
// execution all live in internal/engine (the adapter plans with a tiled
// threshold of one cell, so every grid tiles).
// TestTiledMatchesMonolithicAcrossAlgorithms asserts the
// equivalence; hsrperf's viewshed-cold workload measures the memory.

// TileOptions configures a TiledSolver's partition.
type TileOptions struct {
	// TileRows and TileCols are the tile dimensions in grid cells
	// (0 = automatic: about four tiles per axis, at least 16 cells each).
	TileRows, TileCols int
	// DisableCulling turns off the per-tile occlusion cull against the
	// accumulated silhouette envelope. Culling never changes the result;
	// the switch exists for measurements and tests.
	DisableCulling bool
}

// TileStats reports how a tiled solve spent its effort.
type TileStats struct {
	// Bands and Tiles describe the partition (bands are front-to-back rows
	// of tiles; Tiles = Bands × columns).
	Bands, Tiles int
	// TilesSolved and TilesCulled split the tiles into those that ran a
	// local solve and those skipped because nearer terrain already covered
	// their entire bounding box.
	TilesSolved, TilesCulled int
	// LocalPieces counts owned visible pieces before cross-band clipping.
	LocalPieces int
	// SilhouetteSize is the piece count of the final accumulated silhouette.
	SilhouetteSize int
}

// publicTileStats converts the internal tiling report.
func publicTileStats(st tile.Stats) TileStats {
	return TileStats{
		Bands: st.Bands, Tiles: st.Tiles,
		TilesSolved: st.TilesSolved, TilesCulled: st.TilesCulled,
		LocalPieces: st.LocalPieces, SilhouetteSize: st.EnvelopeSize,
	}
}

// TiledSolver solves a grid terrain tile by tile. It is a thin adapter over
// the internal/engine planner and executor, planned with a tiled threshold
// of one cell, so every grid tiles. It is safe for concurrent use; the partition and arena pool its
// executor carries are shared by all solves (and, for SolveMany, by all
// frames).
type TiledSolver struct {
	t   *Terrain
	eng *engine.Executor
}

// NewTiledSolver plans the tiling of a grid terrain. The terrain must carry
// grid structure — built by NewGridTerrain or Generate (or transforms of
// those); arbitrary meshes from NewTerrain cannot be tiled.
func NewTiledSolver(t *Terrain, topt TileOptions) (*TiledSolver, error) {
	if t == nil || t.t == nil {
		return nil, fmt.Errorf("terrainhsr: nil terrain")
	}
	eng := engine.New(t.t, engine.Config{
		TileSpec: tile.Spec{TileRows: topt.TileRows, TileCols: topt.TileCols},
		NoCull:   topt.DisableCulling,
	})
	if err := eng.EnsureTiles(); err != nil {
		return nil, err
	}
	return &TiledSolver{t: t, eng: eng}, nil
}

// Terrain returns the terrain this solver was built for.
func (ts *TiledSolver) Terrain() *Terrain { return ts.t }

// TileGrid returns the partition's tile-grid dimensions: the number of
// front-to-back bands and of tile columns per band.
func (ts *TiledSolver) TileGrid() (bands, cols int) { return ts.eng.TileGrid() }

// Solve computes the visible scene of the whole terrain through the tiled
// pipeline. All algorithms of Options are supported; the result is
// equivalent to Solve on the same terrain with the same Options.
func (ts *TiledSolver) Solve(opt Options) (*Result, error) {
	res, _, err := ts.SolveWithStats(opt)
	return res, err
}

// SolveWithStats is Solve plus the tiling effort report.
func (ts *TiledSolver) SolveWithStats(opt Options) (*Result, TileStats, error) {
	outs, _, err := runPlanned(ts.eng, singleRequest(opt, alwaysTile))
	if err != nil {
		return nil, TileStats{}, err
	}
	return newResult(outs[0].Res, opt.Algorithm), publicTileStats(outs[0].Tile), nil
}

// SolveMany solves the terrain from many perspective eye points, tiled.
// Frames and tiles share one worker budget exactly as in BatchSolver.Solve:
// FrameWorkers frames run concurrently, each splitting its share between
// concurrent tiles and intra-tile workers; the tree-arena pool is shared by
// every tile of every frame. Results are in eye order and each equivalent
// to FromPerspective + Solve with the same Options.
func (ts *TiledSolver) SolveMany(eyes []Point, opt BatchOptions) ([]*Result, error) {
	return runMany(ts.eng, batchRequest(opt, eyes, alwaysTile), opt.Algorithm)
}

// SolvePath solves every viewpoint of a camera path, tiled.
func (ts *TiledSolver) SolvePath(path ViewPath, opt BatchOptions) ([]*Result, error) {
	return ts.SolveMany(path.eyes, opt)
}

// SolveTiled solves a grid terrain through a one-off TiledSolver; see
// TiledSolver.Solve. Callers issuing repeated solves should keep the
// TiledSolver so the partition and arena pool are reused.
func SolveTiled(t *Terrain, topt TileOptions, opt Options) (*Result, error) {
	ts, err := NewTiledSolver(t, topt)
	if err != nil {
		return nil, err
	}
	return ts.Solve(opt)
}
