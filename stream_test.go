package terrainhsr

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// collectStream gathers a streamed solve into a slice.
func collectStream(t *testing.T, run func(PieceSink) (*StreamInfo, error)) ([]Piece, *StreamInfo) {
	t.Helper()
	var got []Piece
	info, err := run(func(p Piece) error {
		got = append(got, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, info
}

// sortCanonical orders public pieces by (Edge, X1, Z1) — the order
// materialized results use.
func sortCanonical(ps []Piece) {
	sort.SliceStable(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.Edge != b.Edge {
			return a.Edge < b.Edge
		}
		if a.X1 != b.X1 {
			return a.X1 < b.X1
		}
		return a.Z1 < b.Z1
	})
}

func TestSolveStreamByteIdenticalToSolve(t *testing.T) {
	// Small terrains plan monolithic, where the stream order is the
	// canonical materialized order: the sequences must match exactly, for
	// every algorithm.
	tr := genTest(t, "fractal", 12, 12, 5)
	s, err := NewSolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algorithms() {
		opt := Options{Algorithm: algo}
		want, err := s.Solve(opt)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		got, info := collectStream(t, func(sink PieceSink) (*StreamInfo, error) {
			return s.SolveStream(opt, sink)
		})
		piecesEqual(t, fmt.Sprintf("stream (%s)", algo), want.Pieces(), got)
		if info.K != want.K() || info.N != want.N() {
			t.Fatalf("%s: stream info N=%d K=%d, want N=%d K=%d", algo, info.N, info.K, want.N(), want.K())
		}
		if info.Tiled || !strings.HasPrefix(info.Plan, "engine=monolithic ") {
			t.Fatalf("%s: small terrain streamed tiled: %s", algo, info.Plan)
		}
		if info.Algorithm != resolveAlgo(algo) {
			t.Fatalf("%s: stream reports algorithm %s", algo, info.Algorithm)
		}

		// The package-level one-shot must agree too.
		got2, _ := collectStream(t, func(sink PieceSink) (*StreamInfo, error) {
			return SolveStream(tr, opt, sink)
		})
		piecesEqual(t, fmt.Sprintf("one-shot stream (%s)", algo), want.Pieces(), got2)
	}
}

func TestTiledSolveStreamByteIdenticalToTiledSolve(t *testing.T) {
	// Tiled streams flush per depth band; collecting a stream and sorting
	// it canonically must reproduce the materialized tiled result bit for
	// bit, for every algorithm the tiled pipeline supports.
	tr := genTest(t, "massive", 24, 24, 11)
	ts, err := NewTiledSolver(tr, TileOptions{TileRows: 8, TileCols: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{Parallel, ParallelHulls, Sequential, SequentialTree} {
		opt := Options{Algorithm: algo}
		want, stats, err := ts.SolveWithStats(opt)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		got, info := collectStream(t, func(sink PieceSink) (*StreamInfo, error) {
			return ts.SolveStream(opt, sink)
		})
		if !info.Tiled || !strings.HasPrefix(info.Plan, "engine=tiled ") {
			t.Fatalf("%s: tiled stream not tiled: %s", algo, info.Plan)
		}
		if info.K != want.K() {
			t.Fatalf("%s: streamed %d pieces, materialized %d", algo, info.K, want.K())
		}
		if info.TileStats.Bands != stats.Bands || info.TileStats.Tiles != stats.Tiles {
			t.Fatalf("%s: stream tile stats %+v, want %+v", algo, info.TileStats, stats)
		}
		sortCanonical(got)
		piecesEqual(t, fmt.Sprintf("tiled stream (%s)", algo), want.Pieces(), got)
	}
}

func TestSolveStreamFromMatchesBatchFrame(t *testing.T) {
	tr := genTest(t, "fractal", 12, 12, 5)
	eye := Point{X: -20, Y: 7, Z: 16}
	const minDepth = 0.5

	// Monolithic route: must equal the per-viewpoint pipeline exactly.
	s, err := NewSolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	persp, err := tr.FromPerspective(eye, minDepth)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(persp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, info := collectStream(t, func(sink PieceSink) (*StreamInfo, error) {
		return s.SolveStreamFrom(eye, BatchOptions{MinDepth: minDepth}, sink)
	})
	piecesEqual(t, "SolveStreamFrom", want.Pieces(), got)
	if info.Tiled {
		t.Fatalf("small terrain streamed tiled: %s", info.Plan)
	}

	// Tiled route: must equal the tiled batch frame after canonical sort.
	ts, err := NewTiledSolver(tr, TileOptions{TileRows: 4, TileCols: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantTiled, err := ts.SolveMany([]Point{eye}, BatchOptions{MinDepth: minDepth})
	if err != nil {
		t.Fatal(err)
	}
	gotTiled, tInfo := collectStream(t, func(sink PieceSink) (*StreamInfo, error) {
		return ts.SolveStreamFrom(eye, BatchOptions{MinDepth: minDepth}, sink)
	})
	if !tInfo.Tiled {
		t.Fatalf("tiled stream not tiled: %s", tInfo.Plan)
	}
	sortCanonical(gotTiled)
	piecesEqual(t, "tiled SolveStreamFrom", wantTiled[0].Pieces(), gotTiled)
}

func TestStreamSinkErrorAborts(t *testing.T) {
	tr := genTest(t, "fractal", 10, 10, 3)
	boom := fmt.Errorf("sink full")
	n := 0
	_, err := SolveStream(tr, Options{}, func(Piece) error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	})
	if err == nil {
		t.Fatal("sink error not propagated")
	}
	if n != 2 {
		t.Fatalf("sink called %d times after aborting at 2", n)
	}

	ts, err := NewTiledSolver(tr, TileOptions{TileRows: 4, TileCols: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.SolveStream(Options{}, func(Piece) error { return boom }); err == nil {
		t.Fatal("tiled sink error not propagated")
	}
}

func TestPiecesCachedAndEachPiece(t *testing.T) {
	tr := genTest(t, "fractal", 10, 10, 7)
	r, err := Solve(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1 := r.Pieces()
	p2 := r.Pieces()
	if len(p1) == 0 {
		t.Fatal("no pieces")
	}
	if &p1[0] != &p2[0] {
		t.Fatal("Pieces() reallocated the converted slice on a second call")
	}

	var walked []Piece
	r.EachPiece(func(p Piece) bool {
		walked = append(walked, p)
		return true
	})
	piecesEqual(t, "EachPiece vs Pieces", p1, walked)

	stop := 0
	r.EachPiece(func(Piece) bool {
		stop++
		return stop < 3
	})
	if stop != 3 {
		t.Fatalf("EachPiece visited %d pieces after yield returned false at 3", stop)
	}
}

func TestPiecesConcurrentCache(t *testing.T) {
	tr := genTest(t, "fractal", 8, 8, 9)
	r, err := Solve(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	ptrs := make([]*Piece, 8)
	for g := range ptrs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ps := r.Pieces()
			ptrs[g] = &ps[0]
		}(g)
	}
	wg.Wait()
	for _, p := range ptrs[1:] {
		if p != ptrs[0] {
			t.Fatal("concurrent Pieces() calls returned different slices")
		}
	}
}
