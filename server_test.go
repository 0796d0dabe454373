package terrainhsr

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// serverEye returns a valid perspective eye for the standard test terrains:
// in front of the grid (all vertices have x >= 0) and above the relief.
func serverEye(dx, dy, dz float64) Point {
	return Point{X: -8 + dx, Y: 6 + dy, Z: 20 + dz}
}

// directPieces solves the terrain from the eye through the public
// per-viewpoint pipeline — the answer Server.Query must match byte for
// byte for monolithically routed terrains.
func directPieces(t *testing.T, tr *Terrain, eye Point, minDepth float64, algo Algorithm) []Piece {
	t.Helper()
	persp, err := tr.FromPerspective(eye, minDepth)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(persp, Options{Algorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	return res.Pieces()
}

func TestServerQueryByteIdenticalToSolve(t *testing.T) {
	tr := genTest(t, "fractal", 12, 12, 5)
	s := NewServer(ServerOptions{Resolution: 0.25})
	if err := s.Register("hill", tr); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{Parallel, SequentialTree, Sequential} {
		q := Query{TerrainID: "hill", Eye: serverEye(0.07, -0.04, 0.11), Algorithm: algo, MinDepth: 0.5}
		qr, err := s.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if qr.Cache != "miss" {
			t.Fatalf("%s: first query outcome = %q, want miss", algo, qr.Cache)
		}
		want := directPieces(t, tr, qr.Eye, q.MinDepth, algo)
		piecesEqual(t, fmt.Sprintf("server vs direct (%s)", algo), want, qr.Result.Pieces())
	}
}

func TestServerQuantizationSharingAndBoundaries(t *testing.T) {
	tr := genTest(t, "fractal", 10, 10, 3)
	s := NewServer(ServerOptions{Resolution: 1.0})
	if err := s.Register("t", tr); err != nil {
		t.Fatal(err)
	}
	// Two eyes in the same quantization cell share one cached answer.
	a, err := s.Query(Query{TerrainID: "t", Eye: serverEye(0.4, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Query(Query{TerrainID: "t", Eye: serverEye(-0.4, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Eye != b.Eye {
		t.Fatalf("same-cell eyes quantized differently: %v vs %v", a.Eye, b.Eye)
	}
	if b.Cache != "hit" {
		t.Fatalf("same-cell requery outcome = %q, want hit", b.Cache)
	}
	if a.Result != b.Result {
		t.Fatal("same-cell queries returned different *Result pointers")
	}
	// Eyes on opposite sides of a cell boundary map to distinct keys.
	c, err := s.Query(Query{TerrainID: "t", Eye: serverEye(0.6, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cache != "miss" {
		t.Fatalf("across-boundary query outcome = %q, want miss", c.Cache)
	}
	if c.Eye == a.Eye {
		t.Fatalf("boundary eyes collapsed to one key: %v", c.Eye)
	}
	if st := s.Stats(); st.Solves != 2 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v; want 2 solves, 1 hit, 2 misses", st)
	}
}

func TestServerQuantizedAnswerIsExactForSnappedEye(t *testing.T) {
	tr := genTest(t, "sinusoid", 10, 10, 8)
	s := NewServer(ServerOptions{Resolution: 0.5})
	if err := s.Register("t", tr); err != nil {
		t.Fatal(err)
	}
	q := Query{TerrainID: "t", Eye: serverEye(0.13, 0.21, -0.17), MinDepth: 0.25}
	qr, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Eye != s.QuantizeEye(q.Eye) {
		t.Fatalf("reported eye %v is not the quantized eye %v", qr.Eye, s.QuantizeEye(q.Eye))
	}
	want := directPieces(t, tr, qr.Eye, q.MinDepth, Parallel)
	piecesEqual(t, "quantized answer", want, qr.Result.Pieces())
}

func TestServerEpochInvalidation(t *testing.T) {
	flat := genTest(t, "sinusoid", 8, 8, 1)
	ridge := genTest(t, "ridge", 8, 8, 1)
	s := NewServer(ServerOptions{Resolution: 0.5})
	if err := s.Register("t", flat); err != nil {
		t.Fatal(err)
	}
	q := Query{TerrainID: "t", Eye: serverEye(0, 0, 0)}
	first, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Replacing the terrain under the same ID must orphan the cached answer.
	if err := s.Register("t", ridge); err != nil {
		t.Fatal(err)
	}
	second, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != "miss" {
		t.Fatalf("post-replacement outcome = %q, want miss", second.Cache)
	}
	want := directPieces(t, ridge, second.Eye, 0, Parallel)
	piecesEqual(t, "post-replacement answer", want, second.Result.Pieces())
	if first.Result == second.Result {
		t.Fatal("replacement query served the stale terrain's result")
	}
}

// TestServerUnregisterThenRegisterBumpsEpoch guards the epoch memory: an
// Unregister + Register cycle of the same ID must not reset the epoch to a
// previously used value, or cached answers for the old terrain would be
// served as hits for the new one.
func TestServerUnregisterThenRegisterBumpsEpoch(t *testing.T) {
	old := genTest(t, "sinusoid", 8, 8, 1)
	repl := genTest(t, "ridge", 8, 8, 1)
	s := NewServer(ServerOptions{Resolution: 0.5})
	if err := s.Register("t", old); err != nil {
		t.Fatal(err)
	}
	q := Query{TerrainID: "t", Eye: serverEye(0, 0, 0)}
	first, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Unregister("t") {
		t.Fatal("Unregister failed")
	}
	if err := s.Register("t", repl); err != nil {
		t.Fatal(err)
	}
	second, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != "miss" {
		t.Fatalf("post-unregister-register query outcome = %q, want miss", second.Cache)
	}
	if first.Result == second.Result {
		t.Fatal("unregister+register cycle served the old terrain's cached result")
	}
	want := directPieces(t, repl, second.Eye, 0, Parallel)
	piecesEqual(t, "post-cycle answer", want, second.Result.Pieces())
}

func TestServerCoalescedCallersShareResult(t *testing.T) {
	tr := genTest(t, "fractal", 16, 16, 7)
	s := NewServer(ServerOptions{Resolution: 0.5, Workers: 1})
	if err := s.Register("t", tr); err != nil {
		t.Fatal(err)
	}
	const callers = 12
	results := make([]*QueryResult, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			qr, err := s.Query(Query{TerrainID: "t", Eye: serverEye(0, 0, 0)})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = qr
		}(i)
	}
	start.Done()
	done.Wait()
	for i := 1; i < callers; i++ {
		if results[i] == nil || results[0] == nil {
			t.Fatal("missing results")
		}
		if results[i].Result != results[0].Result {
			t.Fatalf("caller %d received a different *Result pointer", i)
		}
	}
	if st := s.Stats(); st.Solves != 1 {
		t.Fatalf("identical concurrent queries ran %d solves, want 1 (stats %+v)", st.Solves, st)
	}
}

func TestServerQueryManyMatchesSingleQueries(t *testing.T) {
	tr := genTest(t, "fractal", 10, 10, 11)
	s := NewServer(ServerOptions{Resolution: 0.25})
	if err := s.Register("t", tr); err != nil {
		t.Fatal(err)
	}
	eyes := []Point{serverEye(0, -3, 0), serverEye(0, 0, 2), serverEye(0, 3, 4), serverEye(0, -3, 0)}
	many, err := s.QueryMany(Query{TerrainID: "t", MinDepth: 0.5}, eyes)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != len(eyes) {
		t.Fatalf("QueryMany returned %d results for %d eyes", len(many), len(eyes))
	}
	for i, eye := range eyes {
		qr, err := s.Query(Query{TerrainID: "t", Eye: eye, MinDepth: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if qr.Cache != "hit" {
			t.Fatalf("eye %d not cached by QueryMany (outcome %q)", i, qr.Cache)
		}
		piecesEqual(t, fmt.Sprintf("QueryMany eye %d", i), qr.Result.Pieces(), many[i].Result.Pieces())
	}
	// The duplicated eye must not have solved twice.
	if st := s.Stats(); st.Solves != 3 {
		t.Fatalf("QueryMany of 4 eyes (3 distinct) ran %d solves, want 3", st.Solves)
	}
}

func TestServerTiledRouting(t *testing.T) {
	tr := genTest(t, "fractal", 16, 16, 13)
	s := NewServer(ServerOptions{Resolution: 0.5, TileCells: 100}) // 16x16 = 256 >= 100
	if err := s.Register("big", tr); err != nil {
		t.Fatal(err)
	}
	q := Query{TerrainID: "big", Eye: serverEye(0, 0, 0), MinDepth: 0.5}
	qr, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Tiled {
		t.Fatal("large grid terrain did not route through the tiled engine")
	}
	if st := s.Stats(); st.TiledSolves != 1 {
		t.Fatalf("TiledSolves = %d, want 1", st.TiledSolves)
	}
	// The answer must match the tiled engine run directly on the same eye.
	ts, err := NewTiledSolver(tr, TileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ts.SolveMany([]Point{qr.Eye}, BatchOptions{Options: Options{}, MinDepth: q.MinDepth})
	if err != nil {
		t.Fatal(err)
	}
	piecesEqual(t, "tiled routing", want[0].Pieces(), qr.Result.Pieces())
	// Meshes and small grids stay monolithic.
	small := genTest(t, "fractal", 6, 6, 13) // 36 < 100 cells
	if err := s.Register("small", small); err != nil {
		t.Fatal(err)
	}
	qr2, err := s.Query(Query{TerrainID: "small", Eye: serverEye(0, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if qr2.Tiled {
		t.Fatal("small terrain routed tiled")
	}
}

func TestServerNoCacheAndDisabledCache(t *testing.T) {
	tr := genTest(t, "fractal", 8, 8, 2)
	s := NewServer(ServerOptions{Resolution: 0.5})
	if err := s.Register("t", tr); err != nil {
		t.Fatal(err)
	}
	q := Query{TerrainID: "t", Eye: serverEye(0, 0, 0), NoCache: true}
	for i := 0; i < 2; i++ {
		qr, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if qr.Cache != "bypass" {
			t.Fatalf("NoCache outcome = %q, want bypass", qr.Cache)
		}
	}
	if st := s.Stats(); st.Solves != 2 {
		t.Fatalf("NoCache queries ran %d solves, want 2", st.Solves)
	}
	// A negative capacity disables caching server-wide.
	u := NewServer(ServerOptions{CacheCapacity: -1})
	if err := u.Register("t", tr); err != nil {
		t.Fatal(err)
	}
	qr, err := u.Query(Query{TerrainID: "t", Eye: serverEye(0, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if qr.Cache != "bypass" {
		t.Fatalf("cache-disabled outcome = %q, want bypass", qr.Cache)
	}
}

func TestServerCapacityOneEvicts(t *testing.T) {
	tr := genTest(t, "fractal", 8, 8, 4)
	s := NewServer(ServerOptions{Resolution: 0.5, CacheCapacity: 1})
	if err := s.Register("t", tr); err != nil {
		t.Fatal(err)
	}
	qa := Query{TerrainID: "t", Eye: serverEye(0, 0, 0)}
	qb := Query{TerrainID: "t", Eye: serverEye(0, 2, 0)}
	for _, q := range []Query{qa, qb, qa} { // second qa was evicted by qb
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Solves != 3 || st.Evictions < 1 || st.CacheEntries != 1 {
		t.Fatalf("stats = %+v; want 3 solves, >= 1 eviction, 1 entry", st)
	}
}

func TestServerErrors(t *testing.T) {
	s := NewServer(ServerOptions{})
	if _, err := s.Query(Query{TerrainID: "nope", Eye: serverEye(0, 0, 0)}); err == nil {
		t.Fatal("query of unregistered terrain succeeded")
	}
	if err := s.Register("", genTest(t, "fractal", 4, 4, 1)); err == nil {
		t.Fatal("empty ID registered")
	}
	if err := s.Register("t", nil); err == nil {
		t.Fatal("nil terrain registered")
	}
	tr := genTest(t, "fractal", 4, 4, 1)
	if err := s.Register("t", tr); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(Query{TerrainID: "t", Eye: serverEye(0, 0, 0), Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// An eye inside the terrain violates MinDepth and must surface an error.
	if _, err := s.Query(Query{TerrainID: "t", Eye: Point{X: 100, Y: 0, Z: 0}}); err == nil {
		t.Fatal("eye behind the terrain accepted")
	}
	if !s.Unregister("t") || s.Unregister("t") {
		t.Fatal("Unregister bookkeeping wrong")
	}
}

// TestServerRejectsNonFinite checks every library query entry point turns a
// NaN or infinite eye coordinate, MinDepth or ErrorBudget into a located
// error instead of a solve.
func TestServerRejectsNonFinite(t *testing.T) {
	tr := genTest(t, "fractal", 12, 12, 5)
	s := NewServer(ServerOptions{TileCells: 16})
	if err := s.Register("t", tr); err != nil {
		t.Fatal(err)
	}
	good := serverEye(0, 0, 0)
	nan, inf := math.NaN(), math.Inf(1)
	sink := func(Piece) error { return nil }
	// A live session: its next frame reuses the plan, so only the frame
	// check stands between a NaN eye and the solver.
	if _, err := s.QuerySession(Query{TerrainID: "t", Eye: good}, sink); err != nil {
		t.Fatal(err)
	}
	ts, err := NewTiledSolver(tr, TileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"Query eye", func() error {
			_, err := s.Query(Query{TerrainID: "t", Eye: Point{X: nan, Y: 1, Z: 1}})
			return err
		}, "eye 0: coordinate x is not finite"},
		{"Query MinDepth", func() error {
			_, err := s.Query(Query{TerrainID: "t", Eye: good, MinDepth: inf})
			return err
		}, "MinDepth +Inf is not finite"},
		{"Query ErrorBudget", func() error {
			_, err := s.Query(Query{TerrainID: "t", Eye: good, ErrorBudget: nan})
			return err
		}, "error budget NaN is not finite"},
		{"QueryMany", func() error {
			_, err := s.QueryMany(Query{TerrainID: "t"}, []Point{good, {X: -8, Y: inf, Z: 20}})
			return err
		}, "coordinate y is not finite"},
		{"QuerySession", func() error {
			_, err := s.QuerySession(Query{TerrainID: "t", Eye: Point{X: -8, Y: 6, Z: nan}}, sink)
			return err
		}, "eye 0: coordinate z is not finite"},
		{"QuerySession ErrorBudget", func() error {
			_, err := s.QuerySession(Query{TerrainID: "t", Eye: good, ErrorBudget: -inf}, sink)
			return err
		}, "error budget -Inf is not finite"},
		{"QueryProgressive", func() error {
			return s.QueryProgressive(Query{TerrainID: "t", Eye: Point{X: inf, Y: 6, Z: 20}},
				func(ProgressivePass) error { return nil }, sink)
		}, "eye 0: coordinate x is not finite"},
		{"TiledSolver", func() error {
			_, err := ts.SolveStreamFrom(Point{X: -8, Y: 6, Z: inf}, BatchOptions{}, sink)
			return err
		}, "eye 0: coordinate z is not finite"},
	} {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestServerConcurrentRegisterAndQuery exercises the registry and cache
// under the race detector: queries race against re-registrations of the
// same ID (epoch bumps) and against queries of other terrains.
func TestServerConcurrentRegisterAndQuery(t *testing.T) {
	a := genTest(t, "fractal", 8, 8, 1)
	b := genTest(t, "sinusoid", 8, 8, 2)
	s := NewServer(ServerOptions{Resolution: 0.5, CacheCapacity: 8})
	if err := s.Register("hot", a); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn: alternate the registered terrain
		defer wg.Done()
		for i := 0; i < 20; i++ {
			tr := a
			if i%2 == 1 {
				tr = b
			}
			if err := s.Register("hot", tr); err != nil {
				t.Errorf("register: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				qr, err := s.Query(Query{TerrainID: "hot", Eye: serverEye(0, float64(g), float64(i%3))})
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if qr.Result == nil || qr.Result.K() <= 0 {
					t.Error("query returned an empty result")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestServerPlanExplain(t *testing.T) {
	big := genTest(t, "fractal", 16, 16, 13)
	small := genTest(t, "fractal", 6, 6, 13)
	s := NewServer(ServerOptions{TileCells: 100}) // 256 >= 100 tiles; 36 does not
	if err := s.Register("big", big); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("small", small); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if len(st.Plans) != 2 {
		t.Fatalf("Stats().Plans has %d entries, want 2: %v", len(st.Plans), st.Plans)
	}
	if !strings.Contains(st.Plans["big"], "engine=batched-tiled") {
		t.Fatalf("big plan %q does not route tiled", st.Plans["big"])
	}
	if strings.Contains(st.Plans["small"], "engine=batched-tiled") || !strings.Contains(st.Plans["small"], "threshold") {
		t.Fatalf("small plan %q: want a non-tiled plan explaining the threshold decision", st.Plans["small"])
	}

	qr, err := s.Query(Query{TerrainID: "big", Eye: serverEye(0, 0, 0), MinDepth: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Tiled || !strings.Contains(qr.Plan, "engine=batched-tiled") {
		t.Fatalf("big query plan %q (tiled=%v), want a tiled plan", qr.Plan, qr.Tiled)
	}
	// Cache hits still report the plan the answer routes through.
	hit, err := s.Query(Query{TerrainID: "big", Eye: serverEye(0, 0, 0), MinDepth: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if hit.Cache != "hit" || hit.Plan != qr.Plan {
		t.Fatalf("cache-hit plan %q (outcome %s), want %q", hit.Plan, hit.Cache, qr.Plan)
	}
}

func TestServerQuerySession(t *testing.T) {
	tr := genTest(t, "massive", 64, 64, 17)
	s := NewServer(ServerOptions{TileCells: 1024}) // 64x64 = 4096: routed tiled
	if err := s.Register("fly", tr); err != nil {
		t.Fatal(err)
	}
	base := sessionPath(64, 4, 8, 7)
	path := []Point{base[0], base[1], base[2], base[3], base[3]} // dwell at the end
	for f, eye := range path {
		var got []Piece
		qr, err := s.QuerySession(Query{TerrainID: "fly", Eye: eye, MinDepth: 1},
			func(p Piece) error { got = append(got, p); return nil })
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if qr.Cache != "session" || qr.Reuse == nil || qr.Result != nil {
			t.Fatalf("frame %d: cache=%q reuse=%v result=%v; want a streamed session answer",
				f, qr.Cache, qr.Reuse, qr.Result)
		}
		if !qr.Tiled {
			t.Fatalf("frame %d routed monolithically: %s", f, qr.Plan)
		}
		if wantReplay := f == 4; qr.Reuse.Replayed != wantReplay {
			t.Fatalf("frame %d: replayed=%v, want %v", f, qr.Reuse.Replayed, wantReplay)
		}
		ind, err := s.Query(Query{TerrainID: "fly", Eye: eye, MinDepth: 1, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		want := ind.Result.Pieces()
		sortCanonical(got)
		sortCanonical(want)
		piecesEqual(t, fmt.Sprintf("session frame %d vs independent query", f), want, got)
	}
	st := s.Stats()
	if st.SessionFrames != 5 || st.SessionReplays != 1 {
		t.Fatalf("stats report %d session frames / %d replays, want 5 / 1", st.SessionFrames, st.SessionReplays)
	}
	if st.TilesResolved == 0 {
		t.Fatalf("no tiles resolved across session frames: %+v", st)
	}
	if st.TilesReused+st.TilesReverified == 0 {
		t.Fatalf("grazing flyover confirmed no verdicts at all: %+v", st)
	}

	// Re-registering the terrain bumps the epoch and orphans the session:
	// the same eye must solve cold, not replay the stale recording.
	if err := s.Register("fly", tr); err != nil {
		t.Fatal(err)
	}
	qr, err := s.QuerySession(Query{TerrainID: "fly", Eye: path[4], MinDepth: 1},
		func(Piece) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if qr.Reuse.Replayed {
		t.Fatal("epoch bump did not orphan the session: stale recording replayed")
	}
}

// TestServerRefusesBaselines: every Server query method refuses the
// quadratic baselines with an error naming the served set, before any
// cache lookup or solve.
func TestServerRefusesBaselines(t *testing.T) {
	s := NewServer(ServerOptions{})
	if err := s.Register("t", genTest(t, "fractal", 6, 6, 1)); err != nil {
		t.Fatal(err)
	}
	sink := func(Piece) error { return nil }
	before := s.Stats()
	for _, algo := range []Algorithm{BruteForce, AllPairs} {
		q := Query{TerrainID: "t", Eye: serverEye(0, 0, 0), Algorithm: algo}
		calls := map[string]error{}
		_, calls["Query"] = s.Query(q)
		_, calls["QueryMany"] = s.QueryMany(q, []Point{serverEye(0, 0, 0), serverEye(1, 0, 0)})
		calls["QueryProgressive"] = s.QueryProgressive(q, func(ProgressivePass) error { return nil }, sink)
		_, calls["QuerySession"] = s.QuerySession(q, sink)
		for name, err := range calls {
			if err == nil || !strings.Contains(err.Error(), "not served (served: parallel, parallel-hulls, parallel-copying, sequential, sequential-tree)") {
				t.Errorf("%s(%s): err = %v, want the served set", name, algo, err)
			}
		}
	}
	after := s.Stats()
	if after.Misses != before.Misses || after.Solves != before.Solves || after.SessionFrames != before.SessionFrames {
		t.Fatalf("refused queries moved the counters: misses %d→%d solves %d→%d frames %d→%d",
			before.Misses, after.Misses, before.Solves, after.Solves, before.SessionFrames, after.SessionFrames)
	}
	// Library Solve keeps every algorithm.
	if _, err := Solve(genTest(t, "fractal", 4, 4, 1), Options{Algorithm: BruteForce}); err != nil {
		t.Fatal(err)
	}
}
