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

// arenaSolve runs sequential-tree on the depth order of the tile's set-up
// arena, as serving does.
func arenaSolve(prep *hsr.Prepared, _ int) (*hsr.Result, error) {
	return prep.SequentialTree(false)
}

// freshSolve runs sequential-tree without reusing anything: it rebuilds the
// sub-terrain's edge table with terrain.New and its depth order with
// hsr.Prepare, the allocating path the arena replaced. Pieces come back in
// the new table's edge numbering, which is the arena's only if the arena's
// edge table is right.
func freshSolve(arena *hsr.Prepared, _ int) (*hsr.Result, error) {
	sub := arena.Terrain()
	tt, err := terrain.New(sub.Verts, sub.Tris)
	if err != nil {
		return nil, err
	}
	prep, err := hsr.Prepare(tt)
	if err != nil {
		return nil, err
	}
	return prep.SequentialTree(false)
}

// setupCase is one tiled solve of the arena tests.
type setupCase struct {
	name string
	lat  Lattice
	part *Partition
}

// setupCases returns a small and a large terrain with partitions of small
// and large tiles, plus a perspective frame of the large one, so that
// alternating between them makes reused arenas shrink and grow.
func setupCases(t *testing.T) []setupCase {
	t.Helper()
	small := genGrid(t, workload.Rough, 10, 12, 3)
	large := genGrid(t, workload.Fractal, 36, 36, 4)
	view := geom.PerspectiveTransform{Eye: geom.Pt3{X: -4, Y: 18, Z: 7}}
	frame, err := large.TransformShared(view.Apply)
	if err != nil {
		t.Fatal(err)
	}
	part := func(tt *terrain.Terrain, spec Spec) *Partition {
		p, err := NewPartition(tt.GridRows, tt.GridCols, spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return []setupCase{
		{"small", Resident{small}, part(small, Spec{TileRows: 4, TileCols: 5})},
		{"large", Resident{large}, part(large, Spec{TileRows: 18, TileCols: 12})},
		{"small-one-tile", Resident{small}, part(small, Spec{TileRows: 10, TileCols: 12})},
		{"frame", Resident{frame}, part(frame, Spec{TileRows: 12, TileCols: 36})},
	}
}

// poisonDraws is how many items the poison helpers draw from a pool: more
// than any test here holds at once, so every idle item is overwritten.
const poisonDraws = 8

// poisonArena fills every buffer of the pooled arenas, to full capacity,
// with values no tile produces, so a solve that reads what an earlier tile
// left behind gives itself away. It also solves a small unrelated terrain
// in each arena, which overwrites the kernel output and sweep buffers the
// arena's preparation holds.
func poisonArena() {
	junk, err := workload.Generate(workload.Params{Kind: workload.Rough, Rows: 5, Cols: 7, Seed: 99, Amplitude: 3})
	if err != nil {
		panic(err)
	}
	var held []*setup
	for i := 0; i < poisonDraws; i++ {
		s := setupPool.Get()
		held = append(held, s)
		if prep, err := s.prep.Prepare(junk); err != nil {
			panic(err)
		} else if _, err := prep.SequentialTree(false); err != nil {
			panic(err)
		}
		fillCap(s.halo, [2]int{7, 3})
		fillCap(s.local, 1<<30)
		fillCap(s.verts, geom.Pt3{X: math.NaN(), Y: math.NaN(), Z: math.NaN()})
		fillCap(s.gverts, -3)
		fillCap(s.tris, [3]int32{})
		fillCap(s.terr.Edges, terrain.Edge{V0: 9, V1: 9, Left: 9, Right: 9})
		fillCap(s.sub.globalEdge, -5)
		fillCap(s.sub.owned, true)
	}
	for _, s := range held {
		setupPool.Put(s)
	}
}

// fillCap sets every element of xs up to its capacity to v.
func fillCap[T any](xs []T, v T) {
	xs = xs[:cap(xs)]
	for i := range xs {
		xs[i] = v
	}
}

// sameResult reports how two tiled results differ, or nil if they carry the
// same bytes: pieces, crossings and counters.
func sameResult(got, want *hsr.Result) error {
	if got.N != want.N || len(got.Pieces) != len(want.Pieces) {
		return fmt.Errorf("N=%d with %d pieces, want N=%d with %d", got.N, len(got.Pieces), want.N, len(want.Pieces))
	}
	for i := range got.Pieces {
		if got.Pieces[i] != want.Pieces[i] {
			return fmt.Errorf("piece %d is %+v, want %+v", i, got.Pieces[i], want.Pieces[i])
		}
	}
	if got.Crossings != want.Crossings || got.Counters != want.Counters {
		return fmt.Errorf("crossings %d counters %+v, want %d %+v", got.Crossings, got.Counters, want.Crossings, want.Counters)
	}
	return nil
}

// references solves every case on the fresh path.
func references(t *testing.T, cases []setupCase) []*hsr.Result {
	t.Helper()
	out := make([]*hsr.Result, len(cases))
	for i, c := range cases {
		res, _, err := Solve(c.lat, c.part, freshSolve, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out[i] = res
	}
	return out
}

func TestSetupArenaReuseMatchesFresh(t *testing.T) {
	cases := setupCases(t)
	want := references(t, cases)
	// Small, large, small again, one big tile, a perspective frame, and
	// back: every step reuses arenas another size left behind.
	for round, i := range []int{0, 1, 0, 2, 3, 1, 0, 3, 2} {
		for _, workers := range []int{1, 2} {
			poisonArena()
			got, _, err := Solve(cases[i].lat, cases[i].part, arenaSolve, Options{Workers: workers})
			if err != nil {
				t.Fatalf("round %d %s w=%d: %v", round, cases[i].name, workers, err)
			}
			if err := sameResult(got, want[i]); err != nil {
				t.Fatalf("round %d %s w=%d: %v", round, cases[i].name, workers, err)
			}
		}
	}
}

func TestSetupArenaConcurrentSolves(t *testing.T) {
	cases := setupCases(t)
	want := references(t, cases)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				i := (g + k) % len(cases)
				got, _, err := Solve(cases[i].lat, cases[i].part, arenaSolve, Options{Workers: 2})
				if err != nil {
					t.Errorf("goroutine %d %s: %v", g, cases[i].name, err)
					return
				}
				if err := sameResult(got, want[i]); err != nil {
					t.Errorf("goroutine %d %s: %v", g, cases[i].name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSetupAllocationFree pins a warm arena's set-up of a resident tile —
// halo ranges, extraction, the sub-terrain's edge table and its depth order
// — at zero allocations.
func TestSetupAllocationFree(t *testing.T) {
	tr := genGrid(t, workload.Fractal, 36, 36, 4)
	p, err := NewPartition(36, 36, Spec{TileRows: 12, TileCols: 12})
	if err != nil {
		t.Fatal(err)
	}
	l := Resident{tr}
	const b, c = 1, 1
	r0, r1 := p.BandRows(b)
	var bt bandTables
	if err := bt.fill(l, p.Cols, r0, r1); err != nil {
		t.Fatal(err)
	}
	ys, ivs := bt.ys, bt.ivs
	_, _, c0, c1 := p.TileCells(b, c)
	owned := ownedIV(ys, r0, r1, c0, c1)
	s := new(setup)
	setUp := func() {
		s.halo = haloRanges(ivs, owned, s.halo)
		sub, err := extract(l, p, b, c, r0, r1, s.halo, s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.prep.Prepare(sub.t); err != nil {
			t.Fatal(err)
		}
	}
	setUp() // grow the buffers
	if n := testing.AllocsPerRun(20, setUp); n != 0 {
		t.Fatalf("warm set-up allocates %v times per tile, want 0", n)
	}
}
