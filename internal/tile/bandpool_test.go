package tile

import (
	"math"
	"slices"
	"testing"

	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/workload"
)

// poisonBandState fills every buffer of one pooled band state, to full
// capacity, with values no solve produces, so a solve that reads what an
// earlier one left behind gives itself away.
func poisonBandState() {
	bs := bandPool.Get().(*bandState)
	defer bandPool.Put(bs)
	junk := envelope.Piece{X1: -1e9, Z1: 1e9, X2: 1e9, Z2: 1e9, Edge: 1 << 30}
	fillCap(bs.front, junk)
	fillCap(bs.back, junk)
	fillCap(bs.band, junk)
	fillCap(bs.segs, geom.S2(-1e9, 1e9, 1e9, 1e9))
	fillCap(bs.tables.yFlat, math.NaN())
	fillCap(bs.tables.ivFlat, yiv{lo: math.NaN(), hi: math.NaN()})
	fillCap(bs.out, hsr.VisiblePiece{Edge: 1 << 30})
}

// bandPoolCases are two solves that share the pools but nothing else: a
// perspective frame of one eye on large tiles, and of another eye on small
// ones, so the second reuses and overwrites the first's band buffers.
func bandPoolCases(t *testing.T) (a, b setupCase) {
	t.Helper()
	tt := genGrid(t, workload.Fractal, 36, 36, 4)
	frame := func(name string, eye geom.Pt3, spec Spec) setupCase {
		view := geom.PerspectiveTransform{Eye: eye}
		ft, err := tt.TransformShared(view.Apply)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPartition(ft.GridRows, ft.GridCols, spec)
		if err != nil {
			t.Fatal(err)
		}
		return setupCase{name, Resident{ft}, p}
	}
	return frame("A", geom.Pt3{X: -4, Y: 18, Z: 7}, Spec{TileRows: 12, TileCols: 18}),
		frame("B", geom.Pt3{X: -9, Y: 5, Z: 12}, Spec{TileRows: 6, TileCols: 9})
}

// TestBandPoolNoAliasing solves A, then B with the same pools, and checks
// that A's returned pieces are unchanged and that both solves match their
// solves from poisoned pools: no returned Result.Pieces aliases the pooled
// output buffer, and no solve reads another's leftovers.
func TestBandPoolNoAliasing(t *testing.T) {
	a, b := bandPoolCases(t)
	want := references(t, []setupCase{a, b})
	for _, workers := range []int{1, 2} {
		resA, _, err := Solve(a.lat, a.part, arenaSolve, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		snap := slices.Clone(resA.Pieces)
		poisonBandState()
		resB, _, err := Solve(b.lat, b.part, arenaSolve, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(resA.Pieces, snap) {
			t.Fatalf("w=%d: solving B rewrote A's returned pieces", workers)
		}
		if err := sameResult(resA, want[0]); err != nil {
			t.Fatalf("w=%d A: %v", workers, err)
		}
		if err := sameResult(resB, want[1]); err != nil {
			t.Fatalf("w=%d B: %v", workers, err)
		}
	}
}

// TestBandPoolNoAliasingEmit is TestBandPoolNoAliasing on the streaming
// path, which reuses the pooled output band by band: A's stream, collected,
// stays A's scene after B streams and after B materializes, and B's stream
// is B's scene.
func TestBandPoolNoAliasingEmit(t *testing.T) {
	a, b := bandPoolCases(t)
	want := references(t, []setupCase{a, b})
	stream := func(c setupCase, workers int) []hsr.VisiblePiece {
		var got []hsr.VisiblePiece
		res, _, err := Solve(c.lat, c.part, arenaSolve, Options{Workers: workers, Emit: func(p hsr.VisiblePiece) error {
			got = append(got, p)
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Pieces != nil {
			t.Fatalf("%s: a streaming solve returned %d pieces", c.name, len(res.Pieces))
		}
		return got
	}
	for _, workers := range []int{1, 2} {
		gotA := stream(a, workers)
		snap := slices.Clone(gotA)
		poisonBandState()
		gotB := stream(b, workers)
		if _, _, err := Solve(b.lat, b.part, arenaSolve, Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotA, snap) {
			t.Fatalf("w=%d: solving B rewrote A's streamed pieces", workers)
		}
		for i, got := range [][]hsr.VisiblePiece{gotA, gotB} {
			sortVisible(got)
			if !slices.Equal(got, want[i].Pieces) {
				t.Fatalf("w=%d %s: sorted stream of %d pieces differs from the materialized %d",
					workers, []string{"A", "B"}[i], len(got), len(want[i].Pieces))
			}
		}
	}
}
