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
// arenas are warm (TestSetupAllocationFree), and the band loop runs in a
// pooled band state, so what remains is each solved tile's kernel output,
// each band's tile-loop closure and the result's exact-size copy: 53 to 54
// allocations on go1.24, against 5,131 when the band loop built its tables,
// envelopes and output afresh and 19,812 when every tile also built a fresh
// edge map and depth order. The ceiling, 2% above that count, leaves no
// room for band-loop or set-up garbage to come back.
func TestTiledSolveSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops arenas at random, so the count does not repeat")
	}
	const ceiling = 55
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
