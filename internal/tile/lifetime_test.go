package tile

import (
	"errors"
	"slices"
	"testing"

	"terrainhsr/internal/hsr"
)

// TestSolveResultOutlivesPools checks the output-lifetime rule of a tiled
// solve: the kernel writes each tile's pieces into the tile's set-up arena
// and the band loop copies the owned ones into the band state's column
// buffers, yet the returned pieces alias neither. Every idle set-up arena
// and band state is overwritten after Solve returns, and the returned
// pieces must still be the fresh path's.
func TestSolveResultOutlivesPools(t *testing.T) {
	cases := setupCases(t)
	want := references(t, cases)
	for _, workers := range []int{1, 2} {
		for i, c := range cases {
			got, _, err := Solve(c.lat, c.part, arenaSolve, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			poisonArena()
			poisonBandState()
			if err := sameResult(got, want[i]); err != nil {
				t.Fatalf("%s w=%d, after the pools were overwritten: %v", c.name, workers, err)
			}
		}
	}
}

// failingLattice is a resident lattice whose vertex reads fail for every
// tile at or behind row failRow except those in the first tile column, so
// a solve aborts in the middle of a band: some of the band's tiles solved
// into the pools, others failed.
type failingLattice struct {
	Resident
	failRow int
}

var errInjected = errors.New("injected page-in failure")

func (f failingLattice) vertices(r0, r1, c0, c1 int) (vertexReader, error) {
	if r0 >= f.failRow && c0 > 0 {
		return nil, errInjected
	}
	return f.Resident.vertices(r0, r1, c0, c1)
}

// TestAbortedSolveThenCleanSolve aborts tiled solves mid-band — once by a
// lattice that fails to produce a tile's vertices, once by an Emit that
// fails part-way through a band's flush — and checks that the clean solves
// that follow, on the same pools, give the fresh path's bytes.
func TestAbortedSolveThenCleanSolve(t *testing.T) {
	cases := setupCases(t)
	want := references(t, cases)
	errEmit := errors.New("injected emit failure")
	for _, workers := range []int{1, 2} {
		for i, c := range cases {
			res, ok := c.lat.(Resident)
			if !ok || c.part.NumBands < 2 || c.part.NumCols < 2 {
				continue // needs a resident lattice with a second band of several tiles
			}
			failRow, _ := c.part.BandRows(1)
			if _, _, err := Solve(failingLattice{res, failRow}, c.part, arenaSolve, Options{Workers: workers}); !errors.Is(err, errInjected) {
				t.Fatalf("%s w=%d: failing lattice gave %v, want the injected error", c.name, workers, err)
			}
			emitted := 0
			stop := len(want[i].Pieces) / 2
			_, _, err := Solve(c.lat, c.part, arenaSolve, Options{Workers: workers, Emit: func(hsr.VisiblePiece) error {
				if emitted++; emitted > stop {
					return errEmit
				}
				return nil
			}})
			if !errors.Is(err, errEmit) {
				t.Fatalf("%s w=%d: failing emit gave %v, want the injected error", c.name, workers, err)
			}
			got, _, err := Solve(c.lat, c.part, arenaSolve, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(got, want[i]); err != nil {
				t.Fatalf("%s w=%d, clean solve after aborted ones: %v", c.name, workers, err)
			}
			var streamed []hsr.VisiblePiece
			if _, _, err := Solve(c.lat, c.part, arenaSolve, Options{Workers: workers, Emit: func(p hsr.VisiblePiece) error {
				streamed = append(streamed, p)
				return nil
			}}); err != nil {
				t.Fatal(err)
			}
			sortVisible(streamed)
			if !slices.Equal(streamed, want[i].Pieces) {
				t.Fatalf("%s w=%d: clean stream after aborted solves differs from the fresh path", c.name, workers)
			}
		}
	}
}
