package tile

import (
	"sort"
	"strings"
	"testing"

	"terrainhsr/internal/hsr"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/workload"
)

func genGrid(t *testing.T, kind workload.Kind, rows, cols int, seed int64) *terrain.Terrain {
	t.Helper()
	tr, err := workload.Generate(workload.Params{Kind: kind, Rows: rows, Cols: cols, Seed: seed, Amplitude: 6})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// seqSolve is the trusted tile-solver callback for the tests. It solves on
// the depth order of the tile's set-up arena, as serving does.
func seqSolve(prep *hsr.Prepared, _ int) (*hsr.Result, error) {
	return prep.Sequential()
}

func TestPartitionShapes(t *testing.T) {
	cases := []struct {
		rows, cols int
		spec       Spec
		bands, tc  int
	}{
		{40, 40, Spec{TileRows: 10, TileCols: 10}, 4, 4},
		{40, 40, Spec{TileRows: 16, TileCols: 16}, 3, 3},
		{40, 40, Spec{TileRows: 100, TileCols: 1}, 1, 40},
		{40, 40, Spec{}, 3, 3}, // auto: max(16, ceil(40/4)=10) = 16 cells/tile
		{512, 512, Spec{}, 4, 4},
		{1, 1, Spec{}, 1, 1},
	}
	for _, c := range cases {
		p, err := NewPartition(c.rows, c.cols, c.spec)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if p.NumBands != c.bands || p.NumCols != c.tc {
			t.Errorf("%dx%d %+v: got %dx%d tiles, want %dx%d",
				c.rows, c.cols, c.spec, p.NumBands, p.NumCols, c.bands, c.tc)
		}
		// Tiles must cover every cell exactly once.
		seen := make([]bool, c.rows*c.cols)
		for b := 0; b < p.NumBands; b++ {
			for cc := 0; cc < p.NumCols; cc++ {
				r0, r1, c0, c1 := p.TileCells(b, cc)
				for i := r0; i < r1; i++ {
					for j := c0; j < c1; j++ {
						if seen[i*c.cols+j] {
							t.Fatalf("cell (%d,%d) owned twice", i, j)
						}
						seen[i*c.cols+j] = true
					}
				}
			}
		}
		for cell, ok := range seen {
			if !ok {
				t.Fatalf("cell %d unowned", cell)
			}
		}
	}
	if _, err := NewPartition(0, 4, Spec{}); err == nil {
		t.Fatal("expected error for empty grid")
	}
	if _, err := NewPartition(4, 4, Spec{TileRows: -1}); err == nil {
		t.Fatal("expected error for negative tile size")
	}
}

// assertNoOverlap fails if any edge's pieces overlap each other — the seam
// dedup guarantee: an edge shared by two tiles must be reported exactly once.
func assertNoOverlap(t *testing.T, pieces []hsr.VisiblePiece) {
	t.Helper()
	byEdge := make(map[int32][]hsr.VisiblePiece)
	for _, p := range pieces {
		byEdge[p.Edge] = append(byEdge[p.Edge], p)
	}
	const tol = 1e-9
	for e, ps := range byEdge {
		vertical := ps[0].Span.X2-ps[0].Span.X1 <= tol
		sort.Slice(ps, func(i, j int) bool {
			if vertical {
				return ps[i].Span.Z1 < ps[j].Span.Z1
			}
			return ps[i].Span.X1 < ps[j].Span.X1
		})
		for i := 1; i < len(ps); i++ {
			if vertical {
				if ps[i].Span.Z1 < ps[i-1].Span.Z2-tol {
					t.Fatalf("edge %d: vertical pieces overlap: %+v then %+v", e, ps[i-1].Span, ps[i].Span)
				}
			} else if ps[i].Span.X1 < ps[i-1].Span.X2-tol {
				t.Fatalf("edge %d: pieces overlap: %+v then %+v", e, ps[i-1].Span, ps[i].Span)
			}
		}
	}
}

func TestSolveMatchesMonolithic(t *testing.T) {
	kinds := []workload.Kind{workload.Fractal, workload.Ridge, workload.Steps, workload.TiltedDown}
	specs := []Spec{
		{TileRows: 7, TileCols: 9}, // uneven tiles, remainders on both axes
		{TileRows: 10, TileCols: 30},
		{TileRows: 30, TileCols: 8},
	}
	for _, kind := range kinds {
		tr := genGrid(t, kind, 30, 30, 5)
		prep, err := hsr.Prepare(tr)
		if err != nil {
			t.Fatal(err)
		}
		mono, err := prep.Sequential()
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			for _, workers := range []int{1, 4} {
				p, err := NewPartition(tr.GridRows, tr.GridCols, spec)
				if err != nil {
					t.Fatal(err)
				}
				res, st, err := Solve(Resident{tr}, p, seqSolve, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s %+v w=%d: %v", kind, spec, workers, err)
				}
				if err := hsr.Equivalent(mono, res, 1e-7, 1e-5); err != nil {
					t.Fatalf("%s %+v w=%d: tiled differs from monolithic: %v", kind, spec, workers, err)
				}
				assertNoOverlap(t, res.Pieces)
				if st.TilesSolved+st.TilesCulled != st.Tiles {
					t.Fatalf("%s %+v: stats don't add up: %+v", kind, spec, st)
				}
			}
		}
	}
}

func TestCullingNeverChangesResult(t *testing.T) {
	// Ridge puts a tall wall in front: back tiles are culled (asserted), and
	// the culled result must match the uncullled one piece for piece.
	tr := genGrid(t, workload.Ridge, 32, 32, 9)
	p, err := NewPartition(32, 32, Spec{TileRows: 8, TileCols: 8})
	if err != nil {
		t.Fatal(err)
	}
	culled, st, err := Solve(Resident{tr}, p, seqSolve, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.TilesCulled == 0 {
		t.Fatal("expected the ridge to cull some back tiles")
	}
	full, st2, err := Solve(Resident{tr}, p, seqSolve, Options{NoCull: true})
	if err != nil {
		t.Fatal(err)
	}
	if st2.TilesCulled != 0 {
		t.Fatalf("NoCull still culled %d tiles", st2.TilesCulled)
	}
	if len(culled.Pieces) != len(full.Pieces) {
		t.Fatalf("culling changed piece count: %d vs %d", len(culled.Pieces), len(full.Pieces))
	}
	for i := range culled.Pieces {
		if culled.Pieces[i] != full.Pieces[i] {
			t.Fatalf("culling changed piece %d: %+v vs %+v", i, culled.Pieces[i], full.Pieces[i])
		}
	}
}

func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	tr := genGrid(t, workload.Fractal, 24, 24, 2)
	p, err := NewPartition(24, 24, Spec{TileRows: 6, TileCols: 6})
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := Solve(Resident{tr}, p, seqSolve, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		res, _, err := Solve(Resident{tr}, p, seqSolve, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pieces) != len(base.Pieces) {
			t.Fatalf("w=%d: piece count %d vs %d", workers, len(res.Pieces), len(base.Pieces))
		}
		for i := range res.Pieces {
			if res.Pieces[i] != base.Pieces[i] {
				t.Fatalf("w=%d: piece %d differs: %+v vs %+v", workers, i, res.Pieces[i], base.Pieces[i])
			}
		}
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	tr := genGrid(t, workload.Fractal, 8, 8, 1)
	p, err := NewPartition(10, 10, Spec{}) // mismatched dims
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Solve(Resident{tr}, p, seqSolve, Options{}); err == nil {
		t.Fatal("expected error for partition/terrain mismatch")
	}
	nogrid := &terrain.Terrain{Verts: tr.Verts, Tris: tr.Tris, Edges: tr.Edges}
	p2, _ := NewPartition(8, 8, Spec{})
	if _, _, err := Solve(Resident{nogrid}, p2, seqSolve, Options{}); err == nil {
		t.Fatal("expected error for non-grid terrain")
	}
	if _, err := NewEdgeIndex(nogrid); err == nil {
		t.Fatal("expected NewEdgeIndex error for non-grid terrain")
	}
	alt, err := terrain.Grid{Rows: 8, Cols: 8, Dx: 1, Dy: 1, AlternateDiagonals: true,
		H: func(i, j int) float64 { return float64((i + 2*j) % 5) }}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Solve(Resident{alt}, p2, seqSolve, Options{}); err == nil || !strings.Contains(err.Error(), "not a grid") {
		t.Fatalf("alternate-diagonal grid: got %v, want the not-a-grid error", err)
	}
	if _, err := TileBounds(Resident{alt}, p2); err == nil {
		t.Fatal("expected TileBounds error for an alternate-diagonal grid")
	}
}
