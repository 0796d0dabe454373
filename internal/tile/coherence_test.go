package tile

import (
	"testing"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/workload"
)

// zeroTimings clears the wall-clock and paging-meter fields of a Stats so
// the deterministic effort counters can be compared exactly.
func zeroTimings(s Stats) Stats {
	s.MergeNS, s.PageWaitNS, s.BytesPaged, s.PageIns = 0, 0, 0, 0
	return s
}

// grazingEyes is a low flyover across a size x size terrain: low enough
// that the front silhouette hides many tiles, so cone checks and verdict
// reuse have work to do.
func grazingEyes(size, frames int, z0, z1 float64) []geom.Pt3 {
	ext := float64(size)
	return geom.LinePts(
		geom.Pt3{X: -0.7 * ext, Y: 0.5*ext + 0.37, Z: z0},
		geom.Pt3{X: -0.4 * ext, Y: 0.5*ext + 0.37, Z: z1},
		frames)
}

// TestConeCheckSoundness is the identity-preserving direction of the cone
// check: whenever Cone passes against a front envelope, the exact per-tile
// cull check (over the transformed extent) must pass too. It walks real
// flyover frames, compares both checks against the true solve front at
// every band, and fails on any tile the cone would cull but the exact check
// keeps. It also demands the cone confirms a decent share of the exact
// culls — a sound check that never passes would be useless.
func TestConeCheckSoundness(t *testing.T) {
	size := 128
	tr := genGrid(t, workload.Massive, size, size, 17)
	p, err := NewPartition(size, size, Spec{TileRows: 16, TileCols: 16})
	if err != nil {
		t.Fatal(err)
	}
	boxes, err := TileBounds(Resident{tr}, p)
	if err != nil {
		t.Fatal(err)
	}
	exactTotal, coneTotal := 0, 0
	for f, eye := range grazingEyes(size, 4, 11, 9) {
		pt := geom.PerspectiveTransform{Eye: eye, MinDepth: 1}
		tt, err := tr.TransformShared(pt.Apply)
		if err != nil {
			t.Fatal(err)
		}
		lat := Resident{tt}
		bs := &bandState{}
		var stats Stats
		for b := 0; b < p.NumBands; b++ {
			r0, r1 := p.BandRows(b)
			if err := bs.tables.fill(lat, p.Cols, r0, r1); err != nil {
				t.Fatal(err)
			}
			ys, ivs := bs.tables.ys, bs.tables.ivs
			outcomes := make([]tileOutcome, p.NumCols)
			for c := 0; c < p.NumCols; c++ {
				_, _, c0, c1 := p.TileCells(b, c)
				owned := ownedIV(ys, r0, r1, c0, c1)
				maxZ, _ := lat.zBound(r0, r1, c0, c1)
				exact := bs.front.CoversAbove(owned.lo, owned.hi, maxZ)
				lo, hi, zc, ok := boxes[b*p.NumCols+c].Cone(eye, 1)
				cone := ok && bs.front.CoversAbove(lo, hi, zc)
				if cone && !exact {
					t.Fatalf("frame %d band %d col %d: cone check culls a tile the exact check keeps", f, b, c)
				}
				if exact {
					exactTotal++
					if cone {
						coneTotal++
					}
					outcomes[c] = tileOutcome{culled: true}
					continue
				}
				if err := solveTile(lat, p, b, c, ys, ivs, bs.front, seqSolve, 1, false, nil, &outcomes[c]); err != nil {
					t.Fatal(err)
				}
			}
			if err := bs.finishBand(b, outcomes, &stats); err != nil {
				t.Fatal(err)
			}
		}
	}
	if exactTotal == 0 {
		t.Fatal("grazing flyover culled no tiles; workload too easy to test anything")
	}
	if coneTotal*2 < exactTotal {
		t.Fatalf("cone confirmed only %d of %d exact culls; too conservative to be useful", coneTotal, exactTotal)
	}
}

// TestCoherentSolveIdenticalAndVerdictsRecorded runs a flyover through
// Solve with Coherence and checks (a) byte-identity against the plain solve
// at every frame, (b) verdicts recorded for every tile, and (c) counters
// consistent: reused + reverified + resolved + plain culls account for all
// tiles, and reuse happens.
func TestCoherentSolveIdenticalAndVerdictsRecorded(t *testing.T) {
	size := 96
	tr := genGrid(t, workload.Massive, size, size, 17)
	p, err := NewPartition(size, size, Spec{TileRows: 16, TileCols: 16})
	if err != nil {
		t.Fatal(err)
	}
	boxes, err := TileBounds(Resident{tr}, p)
	if err != nil {
		t.Fatal(err)
	}
	var prev []Verdict
	totalReused := 0
	for f, eye := range grazingEyes(size, 4, 9, 7) {
		pt := geom.PerspectiveTransform{Eye: eye, MinDepth: 1}
		tt, err := tr.TransformShared(pt.Apply)
		if err != nil {
			t.Fatal(err)
		}
		plain, pst, err := Solve(Resident{tt}, p, seqSolve, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		co := &Coherence{Bounds: boxes, Eye: eye, MinDepth: 1, Prev: prev}
		coh, cst, err := Solve(Resident{tt}, p, seqSolve, Options{Workers: 1, Coherence: co})
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.Pieces) != len(coh.Pieces) {
			t.Fatalf("frame %d: %d vs %d pieces", f, len(plain.Pieces), len(coh.Pieces))
		}
		for i := range plain.Pieces {
			if plain.Pieces[i] != coh.Pieces[i] {
				t.Fatalf("frame %d piece %d: %+v vs %+v", f, i, plain.Pieces[i], coh.Pieces[i])
			}
		}
		if zeroTimings(pst) != zeroTimings(cst) {
			t.Fatalf("frame %d: stats diverge: %+v vs %+v", f, pst, cst)
		}
		for ti, v := range co.Out {
			if v == VerdictNone {
				t.Fatalf("frame %d: tile %d has no verdict", f, ti)
			}
		}
		if co.Stats.TilesResolved != cst.TilesSolved {
			t.Fatalf("frame %d: %d resolved vs %d solved", f, co.Stats.TilesResolved, cst.TilesSolved)
		}
		if f > 0 && co.Stats.TilesReused+co.Stats.VerifyFailures == 0 {
			t.Fatalf("frame %d: no verification attempted despite prior verdicts", f)
		}
		totalReused += co.Stats.TilesReused
		prev = co.Out
	}
	if totalReused == 0 {
		t.Fatal("no tile verdict was ever reused over the grazing flyover")
	}
}

// TestPagedCoherentSolveIdentical mirrors the coherent-identity check on
// the paged lattice: Solve over a PagedGrid with Coherence and bounds from
// TileBounds stays byte-identical to the plain paged solve, and to the
// coherent solve over the equivalent resident lattice, at one and three
// workers, materialized and streamed.
func TestPagedCoherentSolveIdentical(t *testing.T) {
	rows, cols := 48, 48
	p, err := NewPartition(rows, cols, Spec{TileRows: 16, TileCols: 16})
	if err != nil {
		t.Fatal(err)
	}
	base := PagedGrid{Rows: rows, Cols: cols, Cell: 1,
		Src: newMemSource(rows+1, cols+1, testHeights)}
	boxes, err := TileBounds(&base, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, wb := range boxes {
		if !wb.Valid {
			t.Fatal("memSource bounds every rectangle; TileBounds dropped one")
		}
	}
	world := residentTerrain(t, rows, cols, 0, testHeights)
	resBoxes, err := TileBounds(Resident{world}, p)
	if err != nil {
		t.Fatal(err)
	}

	eyes := []geom.Pt3{
		{X: -20, Y: 24.3, Z: 12},
		{X: -18, Y: 24.3, Z: 11},
		{X: -16, Y: 24.3, Z: 10},
	}
	for _, workers := range []int{1, 3} {
		for _, stream := range []bool{false, true} {
			var prev, prevR []Verdict
			reused := 0
			for f, eye := range eyes {
				view := &geom.PerspectiveTransform{Eye: eye, MinDepth: 1}
				g := base
				g.View = view
				plain, pst := solveCollect(t, &g, p, Options{Workers: workers}, stream)
				co := &Coherence{Bounds: boxes, Eye: eye, MinDepth: 1, Prev: prev}
				g2 := base
				g2.View = view
				coh, cst := solveCollect(t, &g2, p, Options{Workers: workers, Coherence: co}, stream)
				if len(plain) != len(coh) || zeroTimings(pst) != zeroTimings(cst) {
					t.Fatalf("w=%d stream=%v frame %d: paged coherent solve diverges (%d vs %d pieces)",
						workers, stream, f, len(plain), len(coh))
				}
				for i := range plain {
					if plain[i] != coh[i] {
						t.Fatalf("w=%d stream=%v frame %d piece %d differs", workers, stream, f, i)
					}
				}
				tr, err := world.TransformShared(view.Apply)
				if err != nil {
					t.Fatal(err)
				}
				rco := &Coherence{Bounds: resBoxes, Eye: eye, MinDepth: 1, Prev: prevR}
				res, _ := solveCollect(t, Resident{tr}, p, Options{Workers: workers, Coherence: rco}, stream)
				if len(res) != len(coh) {
					t.Fatalf("w=%d stream=%v frame %d: resident coherent %d pieces, paged %d", workers, stream, f, len(res), len(coh))
				}
				for i := range res {
					if res[i] != coh[i] {
						t.Fatalf("w=%d stream=%v frame %d piece %d: resident %+v paged %+v", workers, stream, f, i, res[i], coh[i])
					}
				}
				reused += co.Stats.TilesReused
				prev, prevR = co.Out, rco.Out
			}
			if reused == 0 {
				t.Fatalf("w=%d stream=%v: paged flyover reused no verdicts", workers, stream)
			}
		}
	}
}
