package terrainhsr

import (
	"fmt"
	"sync"

	"terrainhsr/internal/engine"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/session"
)

// This file is the streaming result surface: instead of materializing a
// Result and its []Piece slice, a streaming solve hands every visible piece
// to a caller-supplied sink as it is produced. Monolithic plans stream the
// solver's pieces in canonical (Edge, X1, Z1) order; tiled plans flush each
// front-to-back depth band as soon as it completes (canonically ordered
// within the band), so a massive solve never holds a second copy of the
// visible scene — nor, when tiled, even one full copy. Collecting a stream
// and sorting it canonically yields exactly the pieces the materializing
// path returns, bit for bit; the stream determinism tests assert it.

// PieceSink consumes streamed visible pieces; returning an error aborts the
// solve and propagates the error to the caller.
type PieceSink func(p Piece) error

// StreamInfo summarizes a streaming solve: the sizes a Result would have
// reported, plus the plan the engine chose.
type StreamInfo struct {
	// N is the input size (terrain edges) and K the number of visible
	// pieces delivered to the sink.
	N, K int
	// Crossings counts the image vertex events discovered.
	Crossings int64
	// Algorithm is the solver that ran.
	Algorithm Algorithm
	// Plan is the executed plan's explanation (see ServerStats.Plans).
	Plan string
	// Tiled reports whether the plan routed through the tiled pipeline,
	// and TileStats its effort report when it did.
	Tiled     bool
	TileStats TileStats
	// Reuse reports how a session frame was warm-started; nil outside
	// sessions (see Session.NextFrame).
	Reuse *ReuseStats
}

// ReuseStats reports how one session frame reused the previous frame's
// work. All reuse is verified and conservative: the frame's pieces are
// byte-identical to an independent solve of the same eye.
type ReuseStats struct {
	// Replayed is true when the eye was bitwise identical to the previous
	// frame's and the recorded stream was re-emitted without solving.
	Replayed bool
	// TilesReused counts tiles skipped because the previous frame's culled
	// or hidden verdict still held under the conservative cone check;
	// TilesReverified counts tiles whose cone check failed but whose exact
	// cull check culled them anyway; TilesResolved counts tiles that ran a
	// clean solve; VerifyFailures counts cone checks that could not confirm
	// the prior verdict. All zero for replayed frames and untiled plans.
	TilesReused     int
	TilesReverified int
	TilesResolved   int
	VerifyFailures  int
}

// runStream plans and executes a single-view streaming request.
func runStream(e *engine.Executor, req engine.Request, algo Algorithm, sink PieceSink) (*StreamInfo, error) {
	plan, err := e.Plan(req)
	if err != nil {
		return nil, err
	}
	st, err := e.RunStream(plan, req, func(p hsr.VisiblePiece) error {
		return sink(toPiece(p))
	})
	if err != nil {
		return nil, err
	}
	return &StreamInfo{
		N: st.N, K: st.K, Crossings: st.Crossings,
		Algorithm: resolveAlgo(algo), Plan: plan.Explain(),
		Tiled: st.Tiled, TileStats: publicTileStats(st.Tile),
	}, nil
}

// SolveStream computes the visible scene and streams every piece to sink
// instead of materializing a Result. Unlike Solve, the engine is planned
// automatically: massive grid terrains route through the tiled pipeline
// (flushing pieces band by band), everything else runs monolithically —
// the same routing a Server applies.
func SolveStream(t *Terrain, opt Options, sink PieceSink) (*StreamInfo, error) {
	if t == nil || t.t == nil {
		return nil, fmt.Errorf("terrainhsr: nil terrain")
	}
	return runStream(engine.New(t.t, engine.Config{}), singleRequest(opt, routeBySize), opt.Algorithm, sink)
}

// SolveStream is the streaming form of Solver.Solve: pieces go to sink as
// they are produced. The engine is planned automatically exactly as for the
// package-level SolveStream, reusing the solver's cached state.
func (s *Solver) SolveStream(opt Options, sink PieceSink) (*StreamInfo, error) {
	return runStream(s.eng, singleRequest(opt, routeBySize), opt.Algorithm, sink)
}

// SolveStream is the streaming form of TiledSolver.Solve: every depth
// band's pieces are flushed to sink as soon as the band completes, so the
// full visible scene is never materialized.
func (ts *TiledSolver) SolveStream(opt Options, sink PieceSink) (*StreamInfo, error) {
	return runStream(ts.eng, singleRequest(opt, alwaysTile), opt.Algorithm, sink)
}

// SolveStreamFrom streams the visible scene from one perspective eye point:
// the frame a SolveMany over []Point{eye} would solve, delivered piece by
// piece instead of materialized. Consuming a long camera path frame by
// frame through this method holds at most one frame in flight — the
// streaming counterpart of SolveMany for render pipelines that do not need
// every frame at once. FrameWorkers is ignored (there is one frame); the
// whole Workers budget solves it.
func (s *Solver) SolveStreamFrom(eye Point, opt BatchOptions, sink PieceSink) (*StreamInfo, error) {
	return runStream(s.eng, batchRequest(opt, []Point{eye}, routeBySize), opt.Algorithm, sink)
}

// SolveStreamFrom streams one perspective frame through the tiled
// pipeline; see Solver.SolveStreamFrom.
func (ts *TiledSolver) SolveStreamFrom(eye Point, opt BatchOptions, sink PieceSink) (*StreamInfo, error) {
	return runStream(ts.eng, batchRequest(opt, []Point{eye}, alwaysTile), opt.Algorithm, sink)
}

// Session streams the frames of one flyover coherently: each frame is
// warm-started from the one before. A frame whose eye is bitwise identical
// to the previous frame's replays the recorded piece stream without solving
// — the dwell/poll fast path — and a moving frame on a tiled plan re-solves
// only the tiles whose previous-frame verdict a conservative cone check
// cannot confirm (see the "Frame coherence" section of ALGORITHM.md). Every
// frame's pieces are byte-identical to an independent SolveStreamFrom of the
// same eye; reuse can only save time, never change output.
//
// A Session is safe for concurrent use, but frames are inherently ordered —
// calls serialize, and each frame's verdicts seed the next. The options
// (algorithm, workers, min depth) are fixed at creation.
type Session struct {
	mu    sync.Mutex
	eng   *engine.Executor
	plan  *engine.Plan
	state *session.State
	opt   BatchOptions
}

// newSession plans a session and builds its warm state. The plan depends
// only on the terrain's shape, so it is made once with a placeholder eye
// and routes every frame.
func newSession(eng *engine.Executor, opt BatchOptions, tileCells int) (*Session, error) {
	req := batchRequest(opt, []Point{{}}, tileCells)
	plan, err := eng.Plan(req)
	if err != nil {
		return nil, err
	}
	state, err := eng.NewSessionState(plan, req)
	if err != nil {
		return nil, err
	}
	return &Session{eng: eng, plan: plan, state: state, opt: opt}, nil
}

// SolveSession opens a flyover session over a terrain with automatic engine
// planning (the same routing as SolveStream). Prefer Solver.NewSession or
// TiledSolver.NewSession when solving several flyovers of one terrain, so
// the per-terrain state is shared.
func SolveSession(t *Terrain, opt BatchOptions) (*Session, error) {
	if t == nil || t.t == nil {
		return nil, fmt.Errorf("terrainhsr: nil terrain")
	}
	return newSession(engine.New(t.t, engine.Config{}), opt, routeBySize)
}

// NewSession opens a flyover session with automatic engine planning,
// reusing the solver's cached per-terrain state.
func (s *Solver) NewSession(opt BatchOptions) (*Session, error) {
	return newSession(s.eng, opt, routeBySize)
}

// NewSession opens a flyover session through the tiled pipeline, reusing
// the solver's partition and tile bounds. Tiled sessions get the full
// verify-then-reuse machinery; monolithic ones replay identical eyes only.
func (ts *TiledSolver) NewSession(opt BatchOptions) (*Session, error) {
	return newSession(ts.eng, opt, alwaysTile)
}

// NextFrame produces the session's next frame at eye, streaming its pieces
// to sink. The pieces are byte-identical to SolveStreamFrom(eye, ...) with
// the session's options; StreamInfo.Reuse reports what was reused.
func (sn *Session) NextFrame(eye Point, sink PieceSink) (*StreamInfo, error) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	req := batchRequest(sn.opt, []Point{eye}, routeBySize) // the session plan routes; the threshold is unread
	fi, err := sn.eng.RunSessionFrame(sn.plan, req, sn.state, func(p hsr.VisiblePiece) error {
		return sink(toPiece(p))
	})
	if err != nil {
		return nil, err
	}
	return &StreamInfo{
		N: fi.N, K: fi.K, Crossings: fi.Crossings,
		Algorithm: resolveAlgo(sn.opt.Algorithm), Plan: sn.plan.Explain(),
		Tiled: sn.plan.Tiled, TileStats: publicTileStats(fi.Tile),
		Reuse: &ReuseStats{
			Replayed:        fi.Replayed,
			TilesReused:     fi.Reuse.TilesReused,
			TilesReverified: fi.Reuse.TilesReverified,
			TilesResolved:   fi.Reuse.TilesResolved,
			VerifyFailures:  fi.Reuse.VerifyFailures,
		},
	}, nil
}
