package cg

import (
	"math/rand"
	"slices"
	"testing"

	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/persist"
	"terrainhsr/internal/profiletree"
)

// TestScratchReuseMatchesFresh: queries through one Ops reuse its scratch,
// and each must return exactly the relations (and run pieces) a query on a
// fresh Ops returns, whatever the previous query left behind.
func TestScratchReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, hulls := range []bool{false, true} {
		reused := profiletree.NewOps(persist.NewArena(5), hulls)
		p := randProfile(r, 40)
		tr := reused.FromProfile(p)
		lo, hi, _ := p.XRange()
		for q := 0; q < 200; q++ {
			x := lo + r.Float64()*(hi-lo)
			// Alternate long and short segments so consecutive queries
			// shrink and grow the scratch.
			w := 0.5 + r.Float64()*(hi-lo)*float64(q%2)
			s := geom.S2(x, r.Float64()*50-5, x+w, r.Float64()*50-5)

			fresh := profiletree.NewOps(persist.NewArena(5), hulls)
			want, wantSt := QueryRelations(fresh, tr, s, envelope.NoEdge)
			got, gotSt := QueryRelations(reused, tr, s, envelope.NoEdge)
			if !slices.Equal(want, got) || wantSt != gotSt {
				t.Fatalf("hulls=%v query %d: reused scratch gave %+v %+v, fresh %+v %+v", hulls, q, got, gotSt, want, wantSt)
			}
			wantRuns := VisibleRuns(fresh, nil, want, s, int32(q))
			gotRuns := VisibleRuns(reused, reused.Scratch.Runs[:0], got, s, int32(q))
			reused.Scratch.Runs = gotRuns
			if len(wantRuns) != len(gotRuns) {
				t.Fatalf("query %d: %d runs from reused scratch, %d fresh", q, len(gotRuns), len(wantRuns))
			}
			for i := range wantRuns {
				if wantRuns[i].X1 != gotRuns[i].X1 || wantRuns[i].X2 != gotRuns[i].X2 || !slices.Equal(wantRuns[i].Pieces, gotRuns[i].Pieces) {
					t.Fatalf("query %d run %d: reused %+v, fresh %+v", q, i, gotRuns[i], wantRuns[i])
				}
			}
		}
	}
}

// TestVisibleRunsBatchMergesAbuttingRuns: runs appended across queries
// into one batch merge when they abut, and a merge never writes into the
// pieces of another run.
func TestVisibleRunsBatchMergesAbuttingRuns(t *testing.T) {
	o := profiletree.NewOps(persist.NewArena(8), false)
	// Room for every piece up front, so all runs share one backing array.
	o.Scratch.Pieces = make([]envelope.Piece, 0, 8)
	empty := profiletree.Tree{}
	var runs []profiletree.Run
	for i, s := range []geom.Seg2{geom.S2(0, 1, 2, 1), geom.S2(2, 1, 3, 2), geom.S2(5, 0, 6, 0), geom.S2(6, 0, 7, 1)} {
		rels, _ := QueryRelations(o, empty, s, envelope.NoEdge)
		runs = VisibleRuns(o, runs, rels, s, int32(i))
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2: %+v", len(runs), runs)
	}
	for i, want := range [][]int32{{0, 1}, {2, 3}} {
		r := runs[i]
		if len(r.Pieces) != 2 || r.Pieces[0].Edge != want[0] || r.Pieces[1].Edge != want[1] {
			t.Fatalf("run %d pieces %+v, want edges %v", i, r.Pieces, want)
		}
		if r.X1 != r.Pieces[0].X1 || r.X2 != r.Pieces[1].X2 {
			t.Fatalf("run %d spans [%v, %v], pieces %+v", i, r.X1, r.X2, r.Pieces)
		}
	}
	// A run's pieces are capacity-capped: appending to the first run must
	// not overwrite the second run's pieces.
	_ = append(runs[0].Pieces, runs[0].Pieces[0])
	if runs[1].Pieces[0].Edge != 2 {
		t.Fatal("appending to one run's pieces overwrote the next run's")
	}
}
