package terrainhsr

import (
	"fmt"
	"testing"
)

// sessionPath builds a low, grazing flyover over a size x size terrain —
// low enough that the front silhouette hides a good share of the tiles, so
// verdict reuse has something to confirm.
func sessionPath(size, frames int, z0, z1 float64) []Point {
	ext := float64(size)
	return LinePath(
		Point{X: -0.7 * ext, Y: 0.5*ext + 0.37, Z: z0},
		Point{X: -0.4 * ext, Y: 0.5*ext + 0.37, Z: z1},
		frames,
	).Viewpoints()
}

// TestSessionByteIdenticalToIndependent is the session contract: every
// frame of a coherent session — moving or dwelling — yields exactly the
// pieces an independent SolveStreamFrom of the same eye yields, for every
// algorithm the tiled pipeline supports and across worker counts.
func TestSessionByteIdenticalToIndependent(t *testing.T) {
	tr := genTest(t, "massive", 96, 96, 17)
	optTiles := TileOptions{TileRows: 16, TileCols: 16}

	// A path with a dwell in the middle: frames 2 and 3 share an eye, so
	// the session must replay one of them.
	base := sessionPath(96, 5, 9, 7)
	path := []Point{base[0], base[1], base[2], base[2], base[3], base[4]}

	for _, algo := range []Algorithm{Parallel, Sequential} {
		for _, workers := range []int{1, 3} {
			ts, err := NewTiledSolver(tr, optTiles)
			if err != nil {
				t.Fatal(err)
			}
			opt := BatchOptions{Options: Options{Algorithm: algo, Workers: workers}, MinDepth: 1}
			sn, err := ts.NewSession(opt)
			if err != nil {
				t.Fatal(err)
			}
			totalReused, totalReplays := 0, 0
			for f, eye := range path {
				want, wInfo := collectStream(t, func(sink PieceSink) (*StreamInfo, error) {
					return ts.SolveStreamFrom(eye, opt, sink)
				})
				got, info := collectStream(t, func(sink PieceSink) (*StreamInfo, error) {
					return sn.NextFrame(eye, sink)
				})
				sortCanonical(want)
				sortCanonical(got)
				piecesEqual(t, fmt.Sprintf("%s/w%d frame %d", algo, workers, f), want, got)
				if info.Reuse == nil {
					t.Fatalf("frame %d: session info has no reuse stats", f)
				}
				if info.K != wInfo.K || info.N != wInfo.N || info.Crossings != wInfo.Crossings {
					t.Fatalf("frame %d: session info N=%d K=%d X=%d, independent N=%d K=%d X=%d",
						f, info.N, info.K, info.Crossings, wInfo.N, wInfo.K, wInfo.Crossings)
				}
				if info.Reuse.Replayed {
					totalReplays++
				}
				totalReused += info.Reuse.TilesReused
			}
			if totalReplays != 1 {
				t.Fatalf("%s/w%d: %d replays over the dwell path, want exactly 1", algo, workers, totalReplays)
			}
			if totalReused == 0 {
				t.Fatalf("%s/w%d: grazing flyover confirmed no tile verdicts; reuse machinery inert", algo, workers)
			}
		}
	}
}

// TestSessionReplayIdentical pins the dwell fast path: a repeated eye
// replays the recorded stream bit for bit and reports it.
func TestSessionReplayIdentical(t *testing.T) {
	tr := genTest(t, "massive", 48, 48, 7)
	ts, err := NewTiledSolver(tr, TileOptions{TileRows: 16, TileCols: 16})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := ts.NewSession(BatchOptions{MinDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	eye := Point{X: -30, Y: 24.4, Z: 20}
	first, info1 := collectStream(t, func(sink PieceSink) (*StreamInfo, error) {
		return sn.NextFrame(eye, sink)
	})
	if info1.Reuse.Replayed {
		t.Fatal("first frame reported as replayed")
	}
	again, info2 := collectStream(t, func(sink PieceSink) (*StreamInfo, error) {
		return sn.NextFrame(eye, sink)
	})
	if !info2.Reuse.Replayed {
		t.Fatal("identical eye not replayed")
	}
	piecesEqual(t, "replayed frame", first, again)
	if info2.K != info1.K || info2.N != info1.N || info2.Crossings != info1.Crossings {
		t.Fatalf("replay info %+v, first frame %+v", info2, info1)
	}
}

// TestSessionMonolithicPlan checks replay-only sessions: a terrain too
// small to tile still sessions correctly (moving frames match independent
// solves, identical eyes replay).
func TestSessionMonolithicPlan(t *testing.T) {
	tr := genTest(t, "fractal", 12, 12, 5)
	s, err := NewSolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	opt := BatchOptions{MinDepth: 0.5}
	sn, err := s.NewSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	eyes := []Point{{X: -20, Y: 7, Z: 16}, {X: -19, Y: 7, Z: 15.5}, {X: -19, Y: 7, Z: 15.5}}
	for f, eye := range eyes {
		want, _ := collectStream(t, func(sink PieceSink) (*StreamInfo, error) {
			return s.SolveStreamFrom(eye, opt, sink)
		})
		got, info := collectStream(t, func(sink PieceSink) (*StreamInfo, error) {
			return sn.NextFrame(eye, sink)
		})
		piecesEqual(t, fmt.Sprintf("monolithic session frame %d", f), want, got)
		if info.Tiled {
			t.Fatalf("small terrain session planned tiled: %s", info.Plan)
		}
		if wantReplay := f == 2; info.Reuse.Replayed != wantReplay {
			t.Fatalf("frame %d: replayed=%v, want %v", f, info.Reuse.Replayed, wantReplay)
		}
		if info.Reuse.TilesReused != 0 {
			t.Fatalf("monolithic session reported tile reuse: %+v", info.Reuse)
		}
	}
}

// TestSessionSinkErrorInvalidates checks that a failed frame drops the warm
// state instead of committing a half-recorded stream: the next frame (same
// eye!) must re-solve, not replay garbage, and still be correct.
func TestSessionSinkErrorInvalidates(t *testing.T) {
	tr := genTest(t, "massive", 48, 48, 7)
	ts, err := NewTiledSolver(tr, TileOptions{TileRows: 16, TileCols: 16})
	if err != nil {
		t.Fatal(err)
	}
	opt := BatchOptions{MinDepth: 1}
	sn, err := ts.NewSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	eye := Point{X: -30, Y: 24.4, Z: 20}
	boom := fmt.Errorf("sink full")
	n := 0
	if _, err := sn.NextFrame(eye, func(Piece) error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	}); err == nil {
		t.Fatal("sink error not propagated")
	}
	want, _ := collectStream(t, func(sink PieceSink) (*StreamInfo, error) {
		return ts.SolveStreamFrom(eye, opt, sink)
	})
	got, info := collectStream(t, func(sink PieceSink) (*StreamInfo, error) {
		return sn.NextFrame(eye, sink)
	})
	if info.Reuse.Replayed {
		t.Fatal("frame after aborted solve claimed a replay")
	}
	sortCanonical(want)
	sortCanonical(got)
	piecesEqual(t, "frame after aborted solve", want, got)
}

// TestServerSessionCapEvictsLRU pins the session registry's bound: after
// maxServerSessions+1 flyovers (distinct MinDepth, so distinct sessions)
// the least recently used one is gone — its dwell frame solves cold — while
// the most recent one still replays its recorded stream.
func TestServerSessionCapEvictsLRU(t *testing.T) {
	tr := genTest(t, "fractal", 8, 8, 3)
	s := NewServer(ServerOptions{})
	if err := s.Register("cap", tr); err != nil {
		t.Fatal(err)
	}
	frame := func(i int) *QueryResult {
		t.Helper()
		qr, err := s.QuerySession(Query{TerrainID: "cap", Eye: serverEye(0, 0, 0), MinDepth: 0.5 + float64(i)/1024},
			func(Piece) error { return nil })
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		return qr
	}
	for i := 0; i <= maxServerSessions; i++ {
		if frame(i).Reuse.Replayed {
			t.Fatalf("session %d replayed its first frame", i)
		}
	}
	if frame(0).Reuse.Replayed {
		t.Fatal("the least recently used session survived the cap: its dwell frame replayed")
	}
	if !frame(maxServerSessions).Reuse.Replayed {
		t.Fatal("the most recent session was evicted: its dwell frame did not replay")
	}
}
