package tile_test

import (
	"testing"

	"terrainhsr/internal/engine"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/tile"
)

// TestTiledSolveSetupAllocs pins the allocations of a warm tiled solve of
// the cold ridge on the path serving runs (engine.TileSolver, sequential-tree
// in every tile, one worker). Per-tile set-up allocates nothing once the
// arenas are warm (TestSetupAllocationFree); each tile's kernel Result and
// output live in its set-up arena and its owned pieces in the pooled band
// state's column buffers; and the band loop runs in that band state, tile
// loop included. What remains is the returned Result and its exact-size
// pieces: 2 allocations on go1.24, against 53 to 54 when each tile's kernel
// output, Result and accounting were fresh, 5,131 when the band loop built
// its tables, envelopes and output afresh and 19,812 when every tile also
// built a fresh edge map and depth order. The ceiling is that count. The
// pools are free lists, so the count repeats under the race detector too.
func TestTiledSolveSetupAllocs(t *testing.T) {
	const ceiling = 2
	view := &geom.PerspectiveTransform{Eye: geom.Pt3{X: -3, Y: 46, Z: 2}}
	vt, err := coldRidge(t).TransformShared(view.Apply)
	if err != nil {
		t.Fatal(err)
	}
	part, err := tile.NewPartition(vt.GridRows, vt.GridCols, engine.OutOfCoreSpec(vt.GridRows, vt.GridCols, 24000))
	if err != nil {
		t.Fatal(err)
	}
	solve := engine.TileSolver(engine.AlgoSequentialTree)
	run := func() {
		if _, _, err := tile.Solve(tile.Resident{T: vt}, part, solve, tile.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arenas and the tree pool
	if n := testing.AllocsPerRun(5, run); n > ceiling {
		t.Fatalf("warm tiled solve allocates %v times, ceiling %d", n, ceiling)
	}
}
