package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"terrainhsr/internal/dem"
	"terrainhsr/internal/freelist"
)

// FormatName and FormatVersion identify the on-disk layout; Open rejects
// anything else.
const (
	FormatName    = "terrainhsr-store"
	FormatVersion = 1
)

// DefaultTileSamples is the per-axis tile extent in samples when a Spec
// leaves it zero: 256 samples ~ a 255-cell solver tile, 512 KiB per tile
// file.
const DefaultTileSamples = 256

// tileMagic opens every tile file ("HSRT").
const tileMagic = 0x48535254

// Spec selects the tile file sizing, in samples per axis. Zero values pick
// DefaultTileSamples. Tile files are pure storage granularity — the unit of
// lazy loading and of I/O — and are independent of the solver's in-memory
// tile partition (tile.Spec), though sizing them alike keeps one solver
// tile's heights within one file read.
type Spec struct {
	// TileRows and TileCols are the tile extent in samples along the depth
	// and image axes.
	TileRows, TileCols int
}

// withDefaults resolves zero fields.
func (s Spec) withDefaults() (Spec, error) {
	if s.TileRows < 0 || s.TileCols < 0 {
		return s, fmt.Errorf("store: negative tile size %dx%d", s.TileRows, s.TileCols)
	}
	if s.TileRows == 0 {
		s.TileRows = DefaultTileSamples
	}
	if s.TileCols == 0 {
		s.TileCols = DefaultTileSamples
	}
	return s, nil
}

// LevelInfo describes one stored pyramid level.
type LevelInfo struct {
	// Rows and Cols are the level's sample counts.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// CellSize is the level's sample spacing in world units.
	CellSize float64 `json:"cell_size"`
	// TileGridRows and TileGridCols are the tile-file grid dimensions.
	TileGridRows int `json:"tile_grid_rows"`
	TileGridCols int `json:"tile_grid_cols"`
	// TileMaxHeights, when present, holds the maximum height sample of every
	// tile, row-major (tile (ti, tj) at ti*TileGridCols+tj). It is the
	// manifest-only height bound the out-of-core Pager serves to the solver's
	// envelope cull, so proven-hidden tiles are never read from disk. Absent
	// on stores written before the field existed (and on levels whose bound
	// would not be finite); readers must treat a missing table as "no bound
	// known", never as an error.
	TileMaxHeights []float64 `json:"tile_max_heights,omitempty"`
}

// manifest is the JSON document at <dir>/manifest.json.
type manifest struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// XLL and YLL georeference sample (0, 0) of every level.
	XLL float64 `json:"xll"`
	YLL float64 `json:"yll"`
	// TileRows and TileCols are the nominal tile extent in samples.
	TileRows int `json:"tile_rows"`
	TileCols int `json:"tile_cols"`
	// Levels runs finest (0) to coarsest.
	Levels []LevelInfo `json:"levels"`
}

// Write persists a pyramid (finest level first, as package lod builds it)
// under dir, creating the directory. Levels must agree on georeferencing;
// heights are stored bit-exactly.
func Write(dir string, levels []*dem.DEM, spec Spec) error {
	spec, err := spec.withDefaults()
	if err != nil {
		return err
	}
	if len(levels) == 0 {
		return fmt.Errorf("store: no levels to write")
	}
	man := manifest{
		Format: FormatName, Version: FormatVersion,
		XLL: levels[0].XLL, YLL: levels[0].YLL,
		TileRows: spec.TileRows, TileCols: spec.TileCols,
	}
	for l, d := range levels {
		if d.XLL != man.XLL || d.YLL != man.YLL {
			return fmt.Errorf("store: level %d origin (%v,%v) disagrees with level 0 (%v,%v)",
				l, d.XLL, d.YLL, man.XLL, man.YLL)
		}
		man.Levels = append(man.Levels, LevelInfo{
			Rows: d.Rows, Cols: d.Cols, CellSize: d.CellSize,
			TileGridRows: tileCount(d.Rows, spec.TileRows),
			TileGridCols: tileCount(d.Cols, spec.TileCols),
		})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for l, d := range levels {
		ldir := filepath.Join(dir, levelDirName(l))
		if err := os.MkdirAll(ldir, 0o755); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		info := man.Levels[l]
		maxes := make([]float64, 0, info.TileGridRows*info.TileGridCols)
		finite := true
		for ti := 0; ti < info.TileGridRows; ti++ {
			for tj := 0; tj < info.TileGridCols; tj++ {
				mx, err := writeTile(filepath.Join(ldir, tileFileName(ti, tj)), d, spec, l, ti, tj)
				if err != nil {
					return err
				}
				if math.IsNaN(mx) || math.IsInf(mx, 0) {
					finite = false // an all-nodata tile: JSON cannot carry the bound
				}
				maxes = append(maxes, mx)
			}
		}
		if finite {
			man.Levels[l].TileMaxHeights = maxes
		}
	}
	buf, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), buf, 0o644); err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	return nil
}

// validate checks a level's manifest entry for self-consistency against
// the store's tile size. Readers index tile files and the TileMaxHeights
// table by these fields, so a corrupt or hostile manifest must fail Open
// rather than misindex later — a wrong cull bound would hide visible
// terrain.
func (info LevelInfo) validate(tileRows, tileCols int) error {
	if info.Rows < 2 || info.Cols < 2 || info.Rows > dem.MaxSamples/info.Cols {
		return fmt.Errorf("%dx%d samples, need at least 2x2 and at most %d", info.Rows, info.Cols, dem.MaxSamples)
	}
	if !(info.CellSize > 0) || math.IsInf(info.CellSize, 1) {
		return fmt.Errorf("cell size %v, need a finite positive spacing", info.CellSize)
	}
	if want := tileCount(info.Rows, tileRows); info.TileGridRows != want {
		return fmt.Errorf("%d tile rows, but %d samples in %d-sample tiles make %d", info.TileGridRows, info.Rows, tileRows, want)
	}
	if want := tileCount(info.Cols, tileCols); info.TileGridCols != want {
		return fmt.Errorf("%d tile columns, but %d samples in %d-sample tiles make %d", info.TileGridCols, info.Cols, tileCols, want)
	}
	if n := len(info.TileMaxHeights); n != 0 && n != info.TileGridRows*info.TileGridCols {
		return fmt.Errorf("%d tile max heights for a %dx%d tile grid", n, info.TileGridRows, info.TileGridCols)
	}
	return nil
}

// tileCount returns how many tiles of extent tile cover n samples.
func tileCount(n, tile int) int { return (n + tile - 1) / tile }

// levelDirName and tileFileName fix the directory layout.
func levelDirName(l int) string      { return fmt.Sprintf("level%d", l) }
func tileFileName(ti, tj int) string { return fmt.Sprintf("tile_%d_%d.bin", ti, tj) }
func tileRange(n, tile, t int) (int, int) { // sample range [lo, hi) of tile t
	lo := t * tile
	hi := lo + tile
	if hi > n {
		hi = n
	}
	return lo, hi
}

// writeTile writes one tile file: header (magic, version, level, ti, tj,
// rows, cols — uint32 LE), float64-bits payload, CRC32 of the payload. It
// returns the tile's maximum height sample (nodata ignored; -Inf when every
// sample is nodata) for the manifest's cull-bound table.
func writeTile(path string, d *dem.DEM, spec Spec, l, ti, tj int) (float64, error) {
	r0, r1 := tileRange(d.Rows, spec.TileRows, ti)
	c0, c1 := tileRange(d.Cols, spec.TileCols, tj)
	rows, cols := r1-r0, c1-c0
	buf := make([]byte, 7*4+rows*cols*8+4)
	hdr := [...]uint32{tileMagic, FormatVersion, uint32(l), uint32(ti), uint32(tj), uint32(rows), uint32(cols)}
	for k, v := range hdr {
		binary.LittleEndian.PutUint32(buf[4*k:], v)
	}
	off := 7 * 4
	mx := math.Inf(-1)
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			v := d.At(i, j)
			if v > mx { // NaN fails every comparison: nodata never sets the bound
				mx = v
			}
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[7*4:off]))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return mx, nil
}

// levelState caches one assembled level. Errors are not cached: a failed
// assembly (a transient I/O error, say) retries on the next request
// instead of poisoning the level for the store's lifetime.
type levelState struct {
	mu  sync.Mutex
	dem *dem.DEM
}

// Store reads a pyramid written by Write. Levels load lazily — opening the
// store reads only the manifest; each level's tile files are read the first
// time that level is requested — and every byte read from tile files is
// counted in BytesLoaded. A Store is safe for concurrent use.
type Store struct {
	dir    string
	man    manifest
	levels []levelState
	// bytes is the cumulative read counter (BytesLoaded): it only ever
	// grows. resident tracks the height bytes currently held — by cached
	// levels and by pager pages — and falls when they are dropped or
	// evicted.
	bytes    atomic.Int64
	resident atomic.Int64
}

// Open reads the manifest under dir. No tile data is touched yet.
func Open(dir string) (*Store, error) {
	buf, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(buf, &man); err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	if man.Format != FormatName || man.Version != FormatVersion {
		return nil, fmt.Errorf("store: %s is %q v%d, want %q v%d",
			dir, man.Format, man.Version, FormatName, FormatVersion)
	}
	if len(man.Levels) == 0 {
		return nil, fmt.Errorf("store: manifest lists no levels")
	}
	if man.TileRows < 1 || man.TileCols < 1 {
		return nil, fmt.Errorf("store: manifest tile size %dx%d", man.TileRows, man.TileCols)
	}
	for l, info := range man.Levels {
		if err := info.validate(man.TileRows, man.TileCols); err != nil {
			return nil, fmt.Errorf("store: %s: manifest level %d: %w", dir, l, err)
		}
	}
	return &Store{dir: dir, man: man, levels: make([]levelState, len(man.Levels))}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// NumLevels returns the stored level count.
func (s *Store) NumLevels() int { return len(s.man.Levels) }

// LevelInfo describes level l without loading it.
func (s *Store) LevelInfo(l int) LevelInfo { return s.man.Levels[l] }

// BytesLoaded returns the total tile-file bytes read so far — the paging
// cost the serving tier reports per terrain. The counter is cumulative: it
// never decreases, not even when levels are dropped or pager pages are
// evicted, so it measures I/O done, not memory held (that is
// ResidentBytes).
func (s *Store) BytesLoaded() int64 { return s.bytes.Load() }

// ResidentBytes returns the height bytes the store currently holds in
// memory: every level cached by LoadLevel plus every resident pager page.
// Unlike the cumulative BytesLoaded it falls when DropLevel releases a
// level or a Pager retires and evicts pages — the pair answers "how much
// I/O has serving this terrain cost" (BytesLoaded) versus "how much memory
// is it holding right now" (ResidentBytes).
func (s *Store) ResidentBytes() int64 { return s.resident.Load() }

// LevelBytes returns the total on-disk bytes of level l's tile files,
// computed from the manifest's shape (the tile layout is deterministic, so
// no directory walk is needed): the denominator operators compare
// BytesLoaded against when sizing a residency budget.
func (s *Store) LevelBytes(l int) int64 {
	info := s.man.Levels[l]
	var total int64
	for ti := 0; ti < info.TileGridRows; ti++ {
		r0, r1 := tileRange(info.Rows, s.man.TileRows, ti)
		for tj := 0; tj < info.TileGridCols; tj++ {
			c0, c1 := tileRange(info.Cols, s.man.TileCols, tj)
			total += int64(7*4 + (r1-r0)*(c1-c0)*8 + 4)
		}
	}
	return total
}

// LoadLevel assembles level l from its tile files, cached: repeated calls
// share one DEM (treat it as read-only) and pay no further I/O. A failed
// assembly is retried on the next call rather than cached. A fresh assembly
// adds the level's height bytes to ResidentBytes (and its tile-file reads
// to the cumulative BytesLoaded).
func (s *Store) LoadLevel(l int) (*dem.DEM, error) {
	if l < 0 || l >= len(s.levels) {
		return nil, fmt.Errorf("store: level %d of %d", l, len(s.levels))
	}
	st := &s.levels[l]
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dem == nil {
		d, err := s.assembleLevel(l)
		if err != nil {
			return nil, err
		}
		st.dem = d
		s.resident.Add(int64(len(d.Heights)) * 8)
	}
	return st.dem, nil
}

// DropLevel releases level l's cached lattice; the next LoadLevel re-reads
// its tiles (and counts the bytes again). Callers that consume a level
// once — building a TIN from it, say — drop it so a massive level's
// heights are not held twice for the process lifetime. Dropping lowers
// ResidentBytes by the level's height bytes; the cumulative BytesLoaded
// read counter never decreases.
func (s *Store) DropLevel(l int) {
	if l < 0 || l >= len(s.levels) {
		return
	}
	st := &s.levels[l]
	st.mu.Lock()
	if st.dem != nil {
		s.resident.Add(-int64(len(st.dem.Heights)) * 8)
	}
	st.dem = nil
	st.mu.Unlock()
}

// assembleLevel stitches every tile of level l into one lattice.
func (s *Store) assembleLevel(l int) (*dem.DEM, error) {
	info := s.man.Levels[l]
	d, err := dem.New(info.Rows, info.Cols, info.CellSize)
	if err != nil {
		return nil, fmt.Errorf("store: level %d: %w", l, err)
	}
	d.XLL, d.YLL = s.man.XLL, s.man.YLL
	for ti := 0; ti < info.TileGridRows; ti++ {
		for tj := 0; tj < info.TileGridCols; tj++ {
			if err := s.readTileInto(d, l, ti, tj); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// LoadTile reads one tile of level l as a standalone lattice (uncached),
// with its origin shifted to the tile's corner — the region-access path for
// callers that page less than a level.
func (s *Store) LoadTile(l, ti, tj int) (*dem.DEM, error) {
	if l < 0 || l >= len(s.man.Levels) {
		return nil, fmt.Errorf("store: level %d of %d", l, len(s.man.Levels))
	}
	info := s.man.Levels[l]
	if ti < 0 || ti >= info.TileGridRows || tj < 0 || tj >= info.TileGridCols {
		return nil, fmt.Errorf("store: tile (%d,%d) outside level %d's %dx%d grid",
			ti, tj, l, info.TileGridRows, info.TileGridCols)
	}
	rows, cols, heights, err := s.readTile(l, ti, tj)
	if err != nil {
		return nil, err
	}
	d, err := dem.New(rows, cols, info.CellSize)
	if err != nil {
		return nil, fmt.Errorf("store: level %d tile (%d,%d): %w", l, ti, tj, err)
	}
	r0, _ := tileRange(info.Rows, s.man.TileRows, ti)
	c0, _ := tileRange(info.Cols, s.man.TileCols, tj)
	d.XLL = s.man.XLL + float64(r0)*info.CellSize
	d.YLL = s.man.YLL + float64(c0)*info.CellSize
	copy(d.Heights, heights)
	return d, nil
}

// readTileInto loads tile (ti, tj) of level l into its slot of d.
func (s *Store) readTileInto(d *dem.DEM, l, ti, tj int) error {
	info := s.man.Levels[l]
	rows, cols, heights, err := s.readTile(l, ti, tj)
	if err != nil {
		return err
	}
	r0, r1 := tileRange(info.Rows, s.man.TileRows, ti)
	c0, c1 := tileRange(info.Cols, s.man.TileCols, tj)
	if rows != r1-r0 || cols != c1-c0 {
		return fmt.Errorf("store: level %d tile (%d,%d) is %dx%d, manifest wants %dx%d",
			l, ti, tj, rows, cols, r1-r0, c1-c0)
	}
	for i := 0; i < rows; i++ {
		copy(d.Heights[(r0+i)*d.Cols+c0:(r0+i)*d.Cols+c0+cols], heights[i*cols:(i+1)*cols])
	}
	return nil
}

// tileBufs recycles the raw bytes of tile files between reads: a tile is
// decoded into heights of its own, so its file's bytes are dead once
// readTile returns.
var tileBufs freelist.List[[]byte]

// readFileInto reads the whole named file into buf's storage, growing it
// as os.ReadFile would, and returns the bytes read.
func readFileInto(buf []byte, path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf[:0], err
	}
	defer f.Close()
	size := 0
	if info, err := f.Stat(); err == nil && info.Size() < 1<<40 {
		size = int(info.Size())
	}
	buf = slices.Grow(buf[:0], size+1) // one byte spare, so EOF needs no growth
	for {
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
	}
}

// readTile reads and verifies one tile file. The file's bytes go through a
// pooled buffer; the returned heights are the caller's.
func (s *Store) readTile(l, ti, tj int) (rows, cols int, heights []float64, err error) {
	path := filepath.Join(s.dir, levelDirName(l), tileFileName(ti, tj))
	bp := tileBufs.Get()
	defer tileBufs.Put(bp)
	buf, err := readFileInto(*bp, path)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("store: %w", err)
	}
	s.bytes.Add(int64(len(buf)))
	if len(buf) < 7*4+4 {
		return 0, 0, nil, fmt.Errorf("store: %s: truncated header", path)
	}
	var hdr [7]uint32
	for k := range hdr {
		hdr[k] = binary.LittleEndian.Uint32(buf[4*k:])
	}
	if hdr[0] != tileMagic || hdr[1] != FormatVersion {
		return 0, 0, nil, fmt.Errorf("store: %s: bad magic or version", path)
	}
	if int(hdr[2]) != l || int(hdr[3]) != ti || int(hdr[4]) != tj {
		return 0, 0, nil, fmt.Errorf("store: %s: header names tile %d/(%d,%d)", path, hdr[2], hdr[3], hdr[4])
	}
	rows, cols = int(hdr[5]), int(hdr[6])
	if rows < 1 || cols < 1 || rows > dem.MaxSamples/cols {
		return 0, 0, nil, fmt.Errorf("store: %s: implausible tile shape %dx%d", path, rows, cols)
	}
	want := 7*4 + rows*cols*8 + 4
	if len(buf) != want {
		return 0, 0, nil, fmt.Errorf("store: %s: %d bytes, want %d", path, len(buf), want)
	}
	// Keep the storage only for a well-formed tile, so a corrupt, oversized
	// file is not pinned in the free list.
	*bp = buf[:0]
	payload := buf[7*4 : want-4]
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(buf[want-4:]) {
		return 0, 0, nil, fmt.Errorf("store: %s: checksum mismatch (corrupt tile)", path)
	}
	heights = make([]float64, rows*cols)
	for k := range heights {
		heights[k] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*k:]))
	}
	return rows, cols, heights, nil
}
