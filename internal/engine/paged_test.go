package engine

import (
	"math"
	"strings"
	"testing"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/tile"
)

// arraySource serves heights from a resident array — the engine-level test
// stand-in for store.Pager.
type arraySource struct {
	rows, cols int // samples
	h          []float64
	retired    int
}

func newArraySource(rows, cols int, h func(i, j int) float64) *arraySource {
	m := &arraySource{rows: rows, cols: cols, h: make([]float64, rows*cols)}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.h[i*cols+j] = h(i, j)
		}
	}
	return m
}

func (m *arraySource) Rect(r0, r1, c0, c1 int) (func(i, j int) float64, error) {
	return func(i, j int) float64 { return m.h[i*m.cols+j] }, nil
}

func (m *arraySource) Retire(row int) {
	if row > m.retired {
		m.retired = row
	}
}

func (m *arraySource) MaxHeight(r0, r1, c0, c1 int) (float64, bool) {
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

// pagedTestHeights has a tall front ridge so silhouette culling fires.
func pagedTestHeights(i, j int) float64 {
	if i == 5 {
		return 60
	}
	return 5*math.Sin(0.31*float64(i))*math.Cos(0.17*float64(j)) + 0.02*float64(i)
}

// TestPagedExecutorMatchesResident is the byte-identity acceptance test: an
// out-of-core executor must produce exactly the pieces the resident tiled
// executor produces, across every prepared algorithm, at 512x512.
func TestPagedExecutorMatchesResident(t *testing.T) {
	rows, cols := 512, 512
	if testing.Short() {
		rows, cols = 96, 96
	}
	const shear = 0.07
	tt, err := terrain.Grid{Rows: rows, Cols: cols, Dx: 1, Dy: 1, H: pagedTestHeights}.Build()
	if err != nil {
		t.Fatal(err)
	}
	tt, err = tt.Transform(func(q geom.Pt3) (geom.Pt3, error) {
		q.Y += shear * q.X
		return q, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resident := New(tt, Config{})
	src := newArraySource(rows+1, cols+1, pagedTestHeights)
	paged := NewPaged(&tile.PagedGrid{Rows: rows, Cols: cols, Cell: 1, Shear: shear, Src: src},
		Config{}, "test grid exceeds budget")

	algos := []string{AlgoSequential, AlgoSequentialTree, AlgoParallel, AlgoParallelCopying}
	for _, algo := range algos {
		req := Request{Algorithm: algo, Workers: 4, TileCells: 1}
		wantPlan, err := resident.Plan(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := resident.Run(wantPlan, req)
		if err != nil {
			t.Fatalf("%s resident: %v", algo, err)
		}
		gotPlan, err := paged.Plan(req)
		if err != nil {
			t.Fatal(err)
		}
		if gotPlan.Mode() != "out-of-core" || !gotPlan.Tiled {
			t.Fatalf("%s: paged plan mode %q tiled=%v", algo, gotPlan.Mode(), gotPlan.Tiled)
		}
		got, err := paged.Run(gotPlan, req)
		if err != nil {
			t.Fatalf("%s paged: %v", algo, err)
		}
		w, g := want[0].Res, got[0].Res
		if g.N != w.N || len(g.Pieces) != len(w.Pieces) {
			t.Fatalf("%s: paged N=%d pieces=%d, resident N=%d pieces=%d",
				algo, g.N, len(g.Pieces), w.N, len(w.Pieces))
		}
		for i := range g.Pieces {
			if g.Pieces[i] != w.Pieces[i] {
				t.Fatalf("%s: piece %d differs: paged %+v resident %+v",
					algo, i, g.Pieces[i], w.Pieces[i])
			}
		}
		if got[0].Tile.TilesCulled == 0 {
			t.Fatalf("%s: ridge terrain culled nothing out-of-core", algo)
		}
	}
}

// TestPagedExecutorPerspective runs a perspective frame out-of-core and
// checks it against the resident batched-tiled pipeline.
func TestPagedExecutorPerspective(t *testing.T) {
	const rows, cols, shear = 64, 64, 0.07
	tt, err := terrain.Grid{Rows: rows, Cols: cols, Dx: 1, Dy: 1, H: pagedTestHeights}.Build()
	if err != nil {
		t.Fatal(err)
	}
	tt, err = tt.Transform(func(q geom.Pt3) (geom.Pt3, error) {
		q.Y += shear * q.X
		return q, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	eyes := []geom.Pt3{{X: -5, Y: 20, Z: 30}, {X: -2, Y: 40, Z: 25}}
	req := Request{Perspective: true, Eyes: eyes, Workers: 2, TileCells: 1}
	resident := New(tt, Config{})
	wantPlan, err := resident.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := resident.Run(wantPlan, req)
	if err != nil {
		t.Fatal(err)
	}
	src := newArraySource(rows+1, cols+1, pagedTestHeights)
	paged := NewPaged(&tile.PagedGrid{Rows: rows, Cols: cols, Cell: 1, Shear: shear, Src: src},
		Config{}, "test grid exceeds budget")
	gotPlan, err := paged.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if gotPlan.FrameWorkers != 1 {
		t.Fatalf("paged perspective plan runs %d frames concurrently", gotPlan.FrameWorkers)
	}
	if !strings.Contains(gotPlan.Explain(), "out-of-core") {
		t.Fatalf("Explain misses the routing reason: %s", gotPlan.Explain())
	}
	got, err := paged.Run(gotPlan, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("paged solved %d frames, resident %d", len(got), len(want))
	}
	for f := range got {
		w, g := want[f].Res, got[f].Res
		if len(g.Pieces) != len(w.Pieces) {
			t.Fatalf("frame %d: paged %d pieces, resident %d", f, len(g.Pieces), len(w.Pieces))
		}
		for i := range g.Pieces {
			if g.Pieces[i] != w.Pieces[i] {
				t.Fatalf("frame %d piece %d differs", f, i)
			}
		}
	}
}

// TestPagedPlannerRejectsMonolithic pins the contract that out-of-core
// terrains cannot run the monolithic pipeline: a paged executor tiles even
// when the threshold says never, and has no resident terrain to prepare.
func TestPagedPlannerRejectsMonolithic(t *testing.T) {
	src := newArraySource(9, 9, pagedTestHeights)
	paged := NewPaged(&tile.PagedGrid{Rows: 8, Cols: 8, Cell: 1, Src: src}, Config{}, "why")
	if plan, err := paged.Plan(Request{TileCells: -1}); err != nil || !plan.Tiled || plan.Mode() != "out-of-core" {
		t.Fatalf("paged plan under a never-tile threshold: %v, err %v", plan, err)
	}
	if err := paged.EnsurePrepared(); err == nil {
		t.Fatal("EnsurePrepared succeeded without a resident terrain")
	}
}

func TestEstimateTerrainBytes(t *testing.T) {
	// 16k x 16k cells must exceed a 512 MB budget; 512x512 must not.
	if got := EstimateTerrainBytes(16384, 16384); got <= 512<<20 {
		t.Fatalf("16k estimate %d fits 512 MB", got)
	}
	if got := EstimateTerrainBytes(512, 512); got > 64<<20 {
		t.Fatalf("512 estimate %d exceeds 64 MB", got)
	}
}
