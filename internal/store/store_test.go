package store

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"terrainhsr/internal/dem"
	"terrainhsr/internal/lod"
)

// buildPyramid makes a deterministic pyramid whose heights exercise exact
// float bits (including negatives and tiny fractions).
func buildPyramid(t *testing.T, rows, cols int, seed int64) *lod.Pyramid {
	t.Helper()
	d, err := dem.New(rows, cols, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	d.XLL, d.YLL = -3.25, 11.5
	r := rand.New(rand.NewSource(seed))
	for k := range d.Heights {
		d.Heights[k] = (r.Float64()*2 - 1) * 123.456789
	}
	p, err := lod.Build(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRoundTripBitIdentical(t *testing.T) {
	p := buildPyramid(t, 70, 55, 1)
	dir := t.TempDir()
	// Tile size 32 forces a multi-tile grid with ragged edge tiles.
	if err := Write(dir, p.Levels, Spec{TileRows: 32, TileCols: 32}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumLevels() != p.NumLevels() {
		t.Fatalf("%d levels stored, want %d", s.NumLevels(), p.NumLevels())
	}
	if s.BytesLoaded() != 0 {
		t.Fatal("Open read tile data eagerly")
	}
	for l := 0; l < s.NumLevels(); l++ {
		got, err := s.LoadLevel(l)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(p.Level(l)) {
			t.Fatalf("level %d is not bit-identical after the round trip", l)
		}
	}
	if s.BytesLoaded() == 0 {
		t.Fatal("BytesLoaded not counting")
	}
}

func TestLoadLevelIsLazyAndCached(t *testing.T) {
	p := buildPyramid(t, 66, 66, 2)
	dir := t.TempDir()
	if err := Write(dir, p.Levels, Spec{TileRows: 16, TileCols: 16}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coarsest := s.NumLevels() - 1
	if _, err := s.LoadLevel(coarsest); err != nil {
		t.Fatal(err)
	}
	coarseBytes := s.BytesLoaded()
	info := s.LevelInfo(0)
	if fullBytes := int64(info.Rows*info.Cols) * 8; coarseBytes >= fullBytes {
		t.Fatalf("coarse level read %d bytes, as much as the full finest level (%d)", coarseBytes, fullBytes)
	}
	a, _ := s.LoadLevel(coarsest)
	b, _ := s.LoadLevel(coarsest)
	if a != b {
		t.Fatal("repeated LoadLevel did not share the cached DEM")
	}
	if s.BytesLoaded() != coarseBytes {
		t.Fatal("cached reload paid I/O again")
	}
}

func TestLoadTile(t *testing.T) {
	p := buildPyramid(t, 40, 40, 3)
	dir := t.TempDir()
	if err := Write(dir, p.Levels, Spec{TileRows: 16, TileCols: 16}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tile, err := s.LoadTile(0, 2, 1) // the ragged last row band: 40 = 16+16+8
	if err != nil {
		t.Fatal(err)
	}
	if tile.Rows != 8 || tile.Cols != 16 {
		t.Fatalf("tile is %dx%d, want 8x16", tile.Rows, tile.Cols)
	}
	full := p.Level(0)
	for i := 0; i < tile.Rows; i++ {
		for j := 0; j < tile.Cols; j++ {
			if math.Float64bits(tile.At(i, j)) != math.Float64bits(full.At(32+i, 16+j)) {
				t.Fatalf("tile sample (%d,%d) differs from the level", i, j)
			}
		}
	}
	if tile.XLL != full.XLL+32*full.CellSize || tile.YLL != full.YLL+16*full.CellSize {
		t.Fatal("tile origin not shifted to its corner")
	}
	if _, err := s.LoadTile(0, 9, 0); err == nil {
		t.Fatal("out-of-grid tile accepted")
	}
}

func TestOpenRejects(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("empty directory opened")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(`{"format":"other","version":1,"levels":[{"rows":2,"cols":2,"cell_size":1}],"tile_rows":4,"tile_cols":4}`), 0o644)
	if _, err := Open(dir); err == nil {
		t.Fatal("foreign format opened")
	}
}

// TestOpenRejectsHostileManifests edits the manifest of a valid store and
// requires Open to refuse each edit with an error naming the level, before
// a Pager could misindex the tile tables or serve a wrong cull bound.
func TestOpenRejectsHostileManifests(t *testing.T) {
	d, err := dem.New(97, 97, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := range d.Heights {
		d.Heights[k] = float64(k % 13)
	}
	cases := []struct {
		name string
		edit func(li *LevelInfo)
	}{
		{"tile grid one column short, max heights cut to match", func(li *LevelInfo) {
			li.TileGridCols = 6
			li.TileMaxHeights = li.TileMaxHeights[:42]
		}},
		{"tile grid one row long", func(li *LevelInfo) { li.TileGridRows = 8 }},
		{"max heights short", func(li *LevelInfo) { li.TileMaxHeights = li.TileMaxHeights[:48] }},
		{"max heights long", func(li *LevelInfo) { li.TileMaxHeights = append(li.TileMaxHeights, 1) }},
		{"one sample row", func(li *LevelInfo) { li.Rows, li.TileGridRows = 1, 1 }},
		{"no sample columns", func(li *LevelInfo) { li.Cols, li.TileGridCols = 0, 0 }},
		{"sample count overflows", func(li *LevelInfo) { li.Rows = 1 << 40 }},
		{"zero cell size", func(li *LevelInfo) { li.CellSize = 0 }},
		{"negative cell size", func(li *LevelInfo) { li.CellSize = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := Write(dir, []*dem.DEM{d}, Spec{TileRows: 16, TileCols: 16}); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "manifest.json")
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var man manifest
			if err := json.Unmarshal(buf, &man); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir); err != nil {
				t.Fatalf("unedited store: %v", err)
			}
			tc.edit(&man.Levels[0])
			if buf, err = json.Marshal(man); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Open(dir)
			if err == nil || !strings.Contains(err.Error(), "level 0") {
				t.Fatalf("Open = %v, want an error locating level 0", err)
			}
		})
	}
}

func TestCorruptTileDetected(t *testing.T) {
	p := buildPyramid(t, 33, 33, 4)
	dir := t.TempDir()
	if err := Write(dir, p.Levels, Spec{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "level0", "tile_0_0.bin")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadLevel(0); err == nil {
		t.Fatal("flipped payload byte not caught by the checksum")
	}
}
