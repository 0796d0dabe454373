// Package tile partitions a grid terrain into overlapping row×col tiles and
// computes the visible scene tile by tile, so that peak memory scales with a
// tile band instead of the whole terrain. It is the massive-terrain layer on
// top of the paper's algorithm (Gupta–Sen, IPPS 1998): each tile's
// sub-terrain is extracted and its depth order prepared in a pooled set-up
// arena, an ordinary hidden-surface solver supplied as a callback
// (SolveFunc) solves that prepared order, and the per-tile answers are
// merged into a scene equivalent to the monolithic solve.
//
// The decomposition follows the I/O-efficient visibility literature
// (Haverkort–Toma's tiled viewsheds over massive grids) adapted to the
// object-space setting of this repository:
//
//   - Bands. Tiles are grouped into bands of cell rows. Rows run along the
//     viewing (depth) axis, so bands are totally ordered front to back: any
//     occluder of a point lies on the sight segment from the viewer, at
//     strictly smaller world x, hence in the same band or an earlier one —
//     under the canonical orthographic view and under every perspective
//     transform the library applies (both keep world x monotone along sight
//     lines).
//
//   - Halos. Within a band, a tile's sub-terrain is its owned cell
//     rectangle plus every band cell whose image-x interval intersects the
//     rectangle's. Same-band occluders of an owned point share its image
//     column, so they live in halo cells; including them makes the local
//     solve exact without inter-tile communication. Halo edges act as
//     occluders only — each global edge is owned by exactly one tile (the
//     tile owning its lowest-numbered incident triangle), which is the tile
//     that reports its pieces, so seam edges are never emitted twice.
//
//   - Silhouette merge. Bands are merged front to back through an
//     accumulated silhouette envelope (package envelope): a band's surviving
//     pieces are the local pieces clipped above the envelope of all earlier
//     bands, and the band's own unclipped silhouette is then merged into the
//     accumulator. In the spirit of Erickson's finite-resolution
//     hidden-surface removal, a tile whose bounding box lies entirely below
//     the accumulated envelope is culled without being solved.
//
//   - Lattices. One band loop, one per-tile solve and one sub-terrain
//     extractor (Solve) read grid geometry through a Lattice, which has
//     exactly two implementations. Resident reads an in-memory grid
//     terrain's vertex table in place, so any vertex-only transform of a
//     grid — a perspective frame included — tiles without closed-form
//     coordinates; its cull bound is the exact maximum transformed height
//     of a tile's vertices. PagedGrid builds vertices from the closed-form
//     grid chain over heights streamed from a HeightSource, bounds a tile
//     by the source's MaxHeight without reading it, and retires each band's
//     pages once its silhouette is merged. Both follow terrain.Grid's
//     canonical triangulation, so global edge ids and owners come from one
//     closed form on both, and both produce the same bytes.
//
//   - Memory. A solve's working memory is pooled at two levels. Each solved
//     tile sets up in a set-up arena (setupPool) that lives until its owned
//     pieces carry global edge ids; the tile owns its kernel's exact-size
//     pieces and filters them in place. The band loop runs in one band
//     state (bandPool) per solve, which owns the band tables, the tile
//     outcomes, the front envelope with its ping-pong partner, the band
//     silhouette's build scratch and the clipped output. Both keep their
//     largest capacity, so a warm solve allocates only its kernels'
//     output and its result; a materializing solve returns an exact-size
//     copy of the pooled output, so no returned piece aliases either pool.
//
// The accumulated envelope is exactly the prefix profile P_i of the paper's
// phase 2, coarsened from per-edge granularity to per-band granularity; the
// equivalence argument is spelled out in ALGORITHM.md.
package tile
