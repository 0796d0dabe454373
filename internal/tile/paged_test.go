package tile

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/workload"
)

// memSource serves heights from a resident array and records which samples
// were ever requested — the test stand-in for store.Pager. Concurrent tiles
// call Rect at once, so the recording is locked.
type memSource struct {
	rows, cols int // samples
	h          []float64
	noBound    bool // make MaxHeight claim ignorance

	mu      sync.Mutex
	touched []bool // samples some Rect has covered
	retired int
}

func newMemSource(rows, cols int, h func(i, j int) float64) *memSource {
	m := &memSource{rows: rows, cols: cols,
		h:       make([]float64, rows*cols),
		touched: make([]bool, rows*cols)}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.h[i*cols+j] = h(i, j)
		}
	}
	return m
}

func (m *memSource) Rect(r0, r1, c0, c1 int) (func(i, j int) float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := r0; i <= r1; i++ {
		for j := c0; j <= c1; j++ {
			m.touched[i*m.cols+j] = true
		}
	}
	return func(i, j int) float64 { return m.h[i*m.cols+j] }, nil
}

func (m *memSource) Retire(row int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if row > m.retired {
		m.retired = row
	}
}

func (m *memSource) MaxHeight(r0, r1, c0, c1 int) (float64, bool) {
	if m.noBound {
		return 0, false
	}
	mx := math.Inf(-1)
	for i := r0; i <= r1; i++ {
		for j := c0; j <= c1; j++ {
			if v := m.h[i*m.cols+j]; v > mx {
				mx = v
			}
		}
	}
	return mx, true
}

func (m *memSource) touchedSamples() int {
	n := 0
	for _, t := range m.touched {
		if t {
			n++
		}
	}
	return n
}

// testHeights is a deterministic rugged surface with a tall ridge near the
// front, so silhouette culling fires on the back bands.
func testHeights(i, j int) float64 {
	if i == 3 {
		return 40
	}
	return 4*math.Sin(0.8*float64(i))*math.Cos(0.5*float64(j)) + 0.13*float64(i) - 0.07*float64(j)
}

// residentTerrain builds the in-core equivalent of a PagedGrid: grid build,
// then the plan shear, exactly as workload generation and dem.ToTerrain do.
func residentTerrain(t *testing.T, rows, cols int, shear float64, h func(i, j int) float64) *terrain.Terrain {
	t.Helper()
	tr, err := terrain.Grid{Rows: rows, Cols: cols, Dx: 1, Dy: 1, H: h}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if shear > 0 {
		tr, err = tr.Transform(func(q geom.Pt3) (geom.Pt3, error) {
			q.Y += shear * q.X
			return q, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// EdgeIndex is the reference gridEdge is checked against: it walks a
// resident grid terrain's edge table — whose order is the global edge
// numbering — and records for every global edge the grid cell that owns it
// (the cell of its lowest-numbered incident triangle).
type EdgeIndex struct {
	// ownerCell[e] is the flattened cell index (i*Cols + j) owning edge e.
	ownerCell []int32
	cols      int
}

// NewEdgeIndex builds the edge index for a grid terrain.
func NewEdgeIndex(t *terrain.Terrain) (*EdgeIndex, error) {
	if !t.IsGrid() {
		return nil, fmt.Errorf("tile: terrain carries no grid metadata (built by something other than terrain.Grid)")
	}
	idx := &EdgeIndex{
		ownerCell: make([]int32, len(t.Edges)),
		cols:      t.GridCols,
	}
	for e, ed := range t.Edges {
		owner := ed.Left
		if owner == terrain.NoTri || (ed.Right != terrain.NoTri && ed.Right < owner) {
			owner = ed.Right
		}
		idx.ownerCell[e] = owner / 2 // Grid.Build emits two triangles per cell
	}
	return idx, nil
}

// Owner returns the owning cell (i, j) of global edge e.
func (idx *EdgeIndex) Owner(e int32) (i, j int) {
	cell := int(idx.ownerCell[e])
	return cell / idx.cols, cell % idx.cols
}

func TestGridEdgeFormulaMatchesIndex(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 5}, {5, 1}, {2, 2}, {4, 7}, {7, 4}, {8, 8}}
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		tr := genGrid(t, workload.Fractal, rows, cols, 3)
		idx, err := NewEdgeIndex(tr)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(tr.Edges), terrain.EdgeCountForGrid(rows, cols); got != want {
			t.Fatalf("%dx%d: %d edges, formula domain expects %d", rows, cols, got, want)
		}
		for ge, ed := range tr.Edges {
			id, oi, oj, err := gridEdge(cols, cols+1, ed.V0, ed.V1)
			if err != nil {
				t.Fatalf("%dx%d edge %d (%d-%d): %v", rows, cols, ge, ed.V0, ed.V1, err)
			}
			if int(id) != ge {
				t.Fatalf("%dx%d edge %d-%d: formula id %d, index id %d", rows, cols, ed.V0, ed.V1, id, ge)
			}
			wi, wj := idx.Owner(int32(ge))
			if oi != wi || oj != wj {
				t.Fatalf("%dx%d edge %d: formula owner (%d,%d), index owner (%d,%d)", rows, cols, ge, oi, oj, wi, wj)
			}
		}
	}
}

func TestSolvePagedMatchesSolveCanonical(t *testing.T) {
	const rows, cols, shear = 32, 32, 0.07
	tr := residentTerrain(t, rows, cols, shear, testHeights)
	p, err := NewPartition(rows, cols, Spec{TileRows: 8, TileCols: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		want, wantSt, err := Solve(Resident{tr}, p, seqSolve, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		src := newMemSource(rows+1, cols+1, testHeights)
		g := &PagedGrid{Rows: rows, Cols: cols, Cell: 1, Shear: shear, Src: src}
		got, gotSt, err := Solve(g, p, seqSolve, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.N != want.N || len(got.Pieces) != len(want.Pieces) {
			t.Fatalf("w=%d: paged N=%d pieces=%d, resident N=%d pieces=%d",
				workers, got.N, len(got.Pieces), want.N, len(want.Pieces))
		}
		for i := range got.Pieces {
			if got.Pieces[i] != want.Pieces[i] {
				t.Fatalf("w=%d: piece %d differs: paged %+v resident %+v",
					workers, i, got.Pieces[i], want.Pieces[i])
			}
		}
		// With no perspective the paged cull bound is exact, so even the
		// cull decisions coincide.
		if gotSt.TilesCulled != wantSt.TilesCulled || gotSt.TilesSolved != wantSt.TilesSolved {
			t.Fatalf("w=%d: paged stats %+v, resident stats %+v", workers, gotSt, wantSt)
		}
		if src.retired != rows {
			t.Fatalf("w=%d: final retire row %d, want %d", workers, src.retired, rows)
		}
	}
}

// solveCollect runs Solve and returns its stats and its pieces in delivery
// order: the materialized slice, or the streamed sequence when stream is set.
func solveCollect(t *testing.T, l Lattice, p *Partition, opt Options, stream bool) ([]hsr.VisiblePiece, Stats) {
	t.Helper()
	var streamed []hsr.VisiblePiece
	if stream {
		opt.Emit = func(pc hsr.VisiblePiece) error {
			streamed = append(streamed, pc)
			return nil
		}
	}
	res, st, err := Solve(l, p, seqSolve, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !stream {
		return res.Pieces, st
	}
	if res.Pieces != nil {
		t.Fatal("streaming solve still materialized pieces")
	}
	return streamed, st
}

// TestSolvePagedMatchesSolvePerspective compares the two lattices byte for
// byte over a short perspective flyover, under every option that changes
// the solve's path: worker counts, streaming, and frame coherence (each
// frame carrying its own lattice's previous verdicts).
func TestSolvePagedMatchesSolvePerspective(t *testing.T) {
	const rows, cols, shear = 30, 28, 0.07
	base := residentTerrain(t, rows, cols, shear, testHeights)
	p, err := NewPartition(rows, cols, Spec{TileRows: 7, TileCols: 9})
	if err != nil {
		t.Fatal(err)
	}
	paged := PagedGrid{Rows: rows, Cols: cols, Cell: 1, Shear: shear,
		Src: newMemSource(rows+1, cols+1, testHeights)}
	resBoxes, err := TileBounds(Resident{base}, p)
	if err != nil {
		t.Fatal(err)
	}
	pagedBoxes, err := TileBounds(&paged, p)
	if err != nil {
		t.Fatal(err)
	}
	eyes := []geom.Pt3{{X: -3.5, Y: 11, Z: 9}, {X: -3.8, Y: 11.2, Z: 8.5}, {X: -4.1, Y: 11.4, Z: 8}}
	for _, workers := range []int{1, 3} {
		for _, stream := range []bool{false, true} {
			for _, coherent := range []bool{false, true} {
				var prevR, prevP []Verdict
				reusedR, reusedP := 0, 0
				for f, eye := range eyes {
					view := &geom.PerspectiveTransform{Eye: eye}
					tr, err := base.TransformShared(view.Apply)
					if err != nil {
						t.Fatal(err)
					}
					g := paged
					g.View = view
					ropt, popt := Options{Workers: workers}, Options{Workers: workers}
					if coherent {
						ropt.Coherence = &Coherence{Bounds: resBoxes, Eye: eye, Prev: prevR}
						popt.Coherence = &Coherence{Bounds: pagedBoxes, Eye: eye, Prev: prevP}
					}
					want, _ := solveCollect(t, Resident{tr}, p, ropt, stream)
					got, _ := solveCollect(t, &g, p, popt, stream)
					if len(got) != len(want) {
						t.Fatalf("w=%d stream=%v coherent=%v frame %d: paged %d pieces, resident %d",
							workers, stream, coherent, f, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("w=%d stream=%v coherent=%v frame %d: piece %d differs: paged %+v resident %+v",
								workers, stream, coherent, f, i, got[i], want[i])
						}
					}
					if coherent {
						prevR, prevP = ropt.Coherence.Out, popt.Coherence.Out
						reusedR += ropt.Coherence.Stats.TilesReused
						reusedP += popt.Coherence.Stats.TilesReused
					}
				}
				if coherent && (reusedR == 0 || reusedP == 0) {
					t.Fatalf("w=%d stream=%v: flyover reused no verdicts (resident %d, paged %d)", workers, stream, reusedR, reusedP)
				}
			}
		}
	}
}

func TestSolvePagedNoBoundStillMatches(t *testing.T) {
	// A source that cannot bound heights disables culling but nothing else.
	const rows, cols = 24, 24
	tr := residentTerrain(t, rows, cols, 0, testHeights)
	p, err := NewPartition(rows, cols, Spec{TileRows: 6, TileCols: 6})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Solve(Resident{tr}, p, seqSolve, Options{NoCull: true})
	if err != nil {
		t.Fatal(err)
	}
	src := newMemSource(rows+1, cols+1, testHeights)
	src.noBound = true
	g := &PagedGrid{Rows: rows, Cols: cols, Cell: 1, Src: src}
	got, st, err := Solve(g, p, seqSolve, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.TilesCulled != 0 {
		t.Fatalf("culled %d tiles with no height bound", st.TilesCulled)
	}
	if len(got.Pieces) != len(want.Pieces) {
		t.Fatalf("piece count %d vs %d", len(got.Pieces), len(want.Pieces))
	}
	for i := range got.Pieces {
		if got.Pieces[i] != want.Pieces[i] {
			t.Fatalf("piece %d differs", i)
		}
	}
}

func TestSolvePagedCulledTilesNeverRead(t *testing.T) {
	const rows, cols = 32, 32
	src := newMemSource(rows+1, cols+1, testHeights)
	g := &PagedGrid{Rows: rows, Cols: cols, Cell: 1, Src: src}
	p, err := NewPartition(rows, cols, Spec{TileRows: 8, TileCols: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := Solve(g, p, seqSolve, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.TilesCulled == 0 {
		t.Fatal("expected the front ridge to cull back tiles")
	}
	total := (rows + 1) * (cols + 1)
	if n := src.touchedSamples(); n >= total {
		t.Fatalf("all %d samples were read despite %d culled tiles", total, st.TilesCulled)
	}
}

func TestSolvePagedStreamsLikeSolve(t *testing.T) {
	const rows, cols = 24, 24
	tr := residentTerrain(t, rows, cols, 0.07, testHeights)
	p, err := NewPartition(rows, cols, Spec{TileRows: 6, TileCols: 6})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Solve(Resident{tr}, p, seqSolve, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := newMemSource(rows+1, cols+1, testHeights)
	g := &PagedGrid{Rows: rows, Cols: cols, Cell: 1, Shear: 0.07, Src: src}
	var streamed []int32
	res, _, err := Solve(g, p, seqSolve, Options{Emit: func(pc hsr.VisiblePiece) error {
		streamed = append(streamed, pc.Edge)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pieces != nil {
		t.Fatal("streaming solve still materialized pieces")
	}
	if len(streamed) != len(want.Pieces) {
		t.Fatalf("streamed %d pieces, materialized %d", len(streamed), len(want.Pieces))
	}
}
