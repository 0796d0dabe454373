package tile

import "fmt"

// Spec selects the tile dimensions of a partition, in grid cells.
// Zero values pick an automatic size aimed at a handful of tiles per axis
// with a sensible minimum tile extent.
type Spec struct {
	// TileRows is the number of cell rows per tile (the depth axis).
	TileRows int
	// TileCols is the number of cell columns per tile (the image axis).
	TileCols int
}

// autoTileSize picks a per-axis tile extent: about targetTiles tiles along
// the axis, but never smaller than minTile cells (tiny tiles pay extraction
// overhead without saving memory).
func autoTileSize(cells int) int {
	const targetTiles, minTile = 4, 16
	size := (cells + targetTiles - 1) / targetTiles
	if size < minTile {
		size = minTile
	}
	if size > cells {
		size = cells
	}
	return size
}

// AutoSize reports the per-axis tile extent a zero Spec picks for an axis
// of the given cell count.
func AutoSize(cells int) int { return autoTileSize(cells) }

// Partition is a row×col tiling of an R×C cell grid terrain. Bands are
// contiguous runs of cell rows — the depth axis, so bands are totally
// ordered front to back — and each band is cut into column tiles. The last
// band and column absorb the remainder, so tiles tile the grid exactly.
type Partition struct {
	// Rows and Cols are the terrain's cell dimensions.
	Rows, Cols int
	// TileRows and TileCols are the nominal tile dimensions in cells.
	TileRows, TileCols int
	// NumBands and NumCols are the tile-grid dimensions.
	NumBands, NumCols int
}

// NewPartition plans the tiling of a rows×cols cell grid.
func NewPartition(rows, cols int, spec Spec) (*Partition, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("tile: need a grid of at least 1x1 cells, got %dx%d", rows, cols)
	}
	tr, tc := spec.TileRows, spec.TileCols
	if tr < 0 || tc < 0 {
		return nil, fmt.Errorf("tile: negative tile size %dx%d", tr, tc)
	}
	if tr == 0 {
		tr = autoTileSize(rows)
	}
	if tc == 0 {
		tc = autoTileSize(cols)
	}
	if tr > rows {
		tr = rows
	}
	if tc > cols {
		tc = cols
	}
	return &Partition{
		Rows: rows, Cols: cols,
		TileRows: tr, TileCols: tc,
		NumBands: (rows + tr - 1) / tr,
		NumCols:  (cols + tc - 1) / tc,
	}, nil
}

// NumTiles returns the total tile count.
func (p *Partition) NumTiles() int { return p.NumBands * p.NumCols }

// BandRows returns the cell-row range [r0, r1) of band b.
func (p *Partition) BandRows(b int) (r0, r1 int) {
	r0 = b * p.TileRows
	r1 = r0 + p.TileRows
	if r1 > p.Rows {
		r1 = p.Rows
	}
	return r0, r1
}

// TileCells returns the owned cell rectangle [r0, r1) × [c0, c1) of the tile
// in band b, column slot c.
func (p *Partition) TileCells(b, c int) (r0, r1, c0, c1 int) {
	r0, r1 = p.BandRows(b)
	c0 = c * p.TileCols
	c1 = c0 + p.TileCols
	if c1 > p.Cols {
		c1 = p.Cols
	}
	return r0, r1, c0, c1
}
