package session

import (
	"fmt"
	"testing"

	"terrainhsr/internal/geom"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/tile"
)

// fakeSolve returns a SolveFrameFunc that emits pieces derived from the
// call count, so replays (which bypass it) are distinguishable from solves.
func fakeSolve(calls *int) SolveFrameFunc {
	return func(co *tile.Coherence, emit func(hsr.VisiblePiece) error) (int, int64, tile.Stats, error) {
		*calls++
		for i := 0; i < 3; i++ {
			pc := hsr.VisiblePiece{Edge: int32(*calls*10 + i)}
			if err := emit(pc); err != nil {
				return 0, 0, tile.Stats{}, err
			}
		}
		return 7, int64(*calls), tile.Stats{}, nil
	}
}

func TestReplayOnlyProtocol(t *testing.T) {
	s := New(0, nil, 0)
	calls := 0
	solve := fakeSolve(&calls)
	collect := func(dst *[]hsr.VisiblePiece) func(hsr.VisiblePiece) error {
		return func(p hsr.VisiblePiece) error { *dst = append(*dst, p); return nil }
	}

	eyeA := geom.Pt3{X: -5, Y: 1, Z: 2}
	var first []hsr.VisiblePiece
	fi, err := s.NextFrame(eyeA, solve, collect(&first))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Replayed || calls != 1 || fi.K != 3 || fi.N != 7 {
		t.Fatalf("first frame: %+v after %d solves", fi, calls)
	}

	// Same eye: replayed, solve not called, pieces identical.
	var again []hsr.VisiblePiece
	fi, err = s.NextFrame(eyeA, solve, collect(&again))
	if err != nil {
		t.Fatal(err)
	}
	if !fi.Replayed || calls != 1 {
		t.Fatalf("replay frame: %+v after %d solves", fi, calls)
	}
	if len(again) != len(first) {
		t.Fatalf("replayed %d pieces, recorded %d", len(again), len(first))
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("replayed piece %d differs", i)
		}
	}

	// Moving eye: a fresh solve, new recording.
	eyeB := geom.Pt3{X: -4, Y: 1, Z: 2}
	var moved []hsr.VisiblePiece
	fi, err = s.NextFrame(eyeB, solve, collect(&moved))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Replayed || calls != 2 || moved[0].Edge != 20 {
		t.Fatalf("moving frame: %+v, calls=%d, first edge %d", fi, calls, moved[0].Edge)
	}
}

func TestErrorInvalidatesWarmState(t *testing.T) {
	s := New(0, nil, 0)
	calls := 0
	solve := fakeSolve(&calls)
	discard := func(hsr.VisiblePiece) error { return nil }
	eye := geom.Pt3{X: -5}
	if _, err := s.NextFrame(eye, solve, discard); err != nil {
		t.Fatal(err)
	}
	if fi, err := s.NextFrame(eye, solve, discard); err != nil || !fi.Replayed {
		t.Fatalf("committed frame not replayed: %+v, %v", fi, err)
	}
	boom := fmt.Errorf("emit failed")
	failing := func(co *tile.Coherence, emit func(hsr.VisiblePiece) error) (int, int64, tile.Stats, error) {
		return 0, 0, tile.Stats{}, boom
	}
	if _, err := s.NextFrame(geom.Pt3{X: -4}, failing, discard); err == nil {
		t.Fatal("solve error swallowed")
	}
	// Neither the frame committed before the failure nor the failed frame's
	// eye may replay afterwards.
	for _, e := range []geom.Pt3{eye, {X: -4}} {
		before := calls
		fi, err := s.NextFrame(e, solve, discard)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Replayed || calls != before+1 {
			t.Fatalf("frame at %v after a failure replayed a dropped recording", e)
		}
	}
}

func TestMismatchedBoundsDisableReuse(t *testing.T) {
	// New guards against a tiles/bounds mismatch by degrading to
	// replay-only instead of indexing out of range later: the solve gets
	// no coherence input and the frame reports no reuse.
	s := New(9, make([]tile.WorldBox, 4), 1)
	calls := 0
	inner := fakeSolve(&calls)
	solve := func(co *tile.Coherence, emit func(hsr.VisiblePiece) error) (int, int64, tile.Stats, error) {
		if co != nil {
			t.Fatal("mismatched bounds still handed the solve a coherence input")
		}
		return inner(co, emit)
	}
	fi, err := s.NextFrame(geom.Pt3{X: -5}, solve, func(hsr.VisiblePiece) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if fi.Reuse != (tile.ReuseStats{}) {
		t.Fatalf("mismatched bounds still produced reuse stats: %+v", fi.Reuse)
	}
}
