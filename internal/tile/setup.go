package tile

import (
	"slices"

	"terrainhsr/internal/freelist"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/terrain"
)

// setup is the set-up arena of one in-flight tile: every buffer the path
// from a tile's halo to its prepared depth order fills — extract's vertex
// and triangle tables, the sub-terrain's triangle and edge tables with the
// edge lists that number them, the local-to-global edge maps, and the depth
// order with its segment table. solveTile takes an arena from setupPool
// before extract and puts it back once the tile's owned pieces carry global
// edge ids, so nothing built in it may outlive the tile: the sub-terrain
// and its Prepared point into it. An arena keeps the capacity of the
// largest tile it has served, so a steady stream of tiles sets up without
// allocating; setupPool holds as many arenas as tiles were ever solved at
// once. The arena's PrepareArena also holds the tile's kernel output
// (hsr.Prepared), which solveTile copies out before it releases the arena.
type setup struct {
	// halo is haloRanges' per-row cell-column ranges.
	halo [][2]int
	// local is the dense local-id table over the halo's bounding vertex
	// rectangle, row-major; -1 marks a vertex no cell has referenced yet.
	local  []int32
	verts  []geom.Pt3
	gverts []int32
	tris   [][3]int32

	terr terrain.Terrain
	tsc  terrain.Scratch
	sub  subTerrain
	prep hsr.PrepareArena
}

var setupPool freelist.List[setup]

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }
