package terrainhsr

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"terrainhsr/internal/engine"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/obs"
	"terrainhsr/internal/session"
)

// maxServerSessions bounds the number of live flyover sessions a server
// retains; the least recently used session is dropped beyond it (a dropped
// session is not an error — its next frame simply solves cold again under a
// fresh session).
const maxServerSessions = 64

// serverSession is one live flyover session: the executor and plan its
// frames run on and the warm state carried between frames. Frames of one
// session serialize on mu; distinct sessions run concurrently.
type serverSession struct {
	mu    sync.Mutex
	eng   *engine.Executor
	plan  *engine.Plan
	state *session.State
}

// sessionKey builds the flyover session registry key: the cache key's
// fingerprint minus the eye — terrain identity and epoch, algorithm,
// MinDepth, and the answering LOD level. Consecutive frames of one flyover
// differ only in their eye, so they land on the same session and warm-start
// from each other; an epoch bump on re-registration orphans the old
// terrain's sessions exactly as it orphans its cached answers (they age out
// under the session cap rather than being purged eagerly).
func (s *Server) sessionKey(id string, e *serverTerrain, algo Algorithm, minDepth float64, level int) string {
	var b strings.Builder
	b.Grow(len(id) + 48)
	b.WriteString(strconv.Quote(id))
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(e.epoch, 10))
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(math.Float64bits(minDepth), 16))
	b.WriteByte('|')
	b.WriteString(string(algo))
	b.WriteString("|L")
	b.WriteString(strconv.Itoa(level))
	return b.String()
}

// session returns the live session under key, creating it if needed. A
// new session plans through the level planner like Query does, and records
// the level's plan before stamping it coherent, so later cache hits report
// the level's own pipeline. The registry is an LRU cache capped at
// maxServerSessions: racing first frames coalesce onto one build, and a
// failed build is not kept.
func (s *Server) session(key string, e *serverTerrain, level int, req engine.Request) (*serverSession, error) {
	v, _, err := s.sessions.GetOrCompute(key, func() (any, error) {
		plan, exec, err := e.levels.PlanLevel(req, -1)
		if err != nil {
			return nil, err
		}
		e.recordPlan(level, Algorithm(req.Algorithm), plan)
		state, err := exec.NewSessionState(plan, req)
		if err != nil {
			return nil, err
		}
		return &serverSession{eng: exec, plan: plan, state: state}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*serverSession), nil
}

// QuerySession answers one frame of a flyover: like Query, but warm-started
// from the previous frame of the same flyover instead of solved cold. The
// server keys sessions by everything in the cache key except the eye, so
// consecutive frames against one terrain with the same options share a
// session automatically — no session handle crosses the API. The frame's
// pieces stream to sink (QueryResult.Result stays nil) and are
// byte-identical to what Query would compute for the same quantized eye: a
// bitwise-repeated eye replays the previous frame's recorded stream without
// solving, and a moving eye on a tiled plan re-solves only the tiles whose
// previous verdict the conservative cone check cannot confirm.
// QueryResult.Cache reports "session" and QueryResult.Reuse the frame's
// reuse ledger. The result cache is not consulted (frames are ordered and
// rarely collide with point queries); sessions are capped at 64 with LRU
// eviction, and an evicted flyover's next frame simply solves cold again.
func (s *Server) QuerySession(q Query, sink PieceSink) (*QueryResult, error) {
	e, level, err := s.resolve(q)
	if err != nil {
		return nil, err
	}
	algo := resolveAlgo(q.Algorithm)
	eye := s.QuantizeEye(q.Eye)
	q.Trace.SetTerrain(q.TerrainID)
	req := s.request(q, []geom.Pt3{pt3(eye)}, s.opt.Workers)
	ss, err := s.session(s.sessionKey(q.TerrainID, e, algo, q.MinDepth, level), e, level, req)
	if err != nil {
		return nil, err
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	tok := q.Trace.StartSpan(obs.StageSession)
	t0 := time.Now()
	fi, err := ss.eng.RunSessionFrame(ss.plan, req, ss.state, func(p hsr.VisiblePiece) error {
		return sink(toPiece(p))
	})
	frameDur := time.Since(t0)
	if err != nil {
		q.Trace.EndSpan(tok)
		return nil, err
	}
	s.sessionFrames.Add(1)
	if fi.Replayed {
		s.sessionReplays.Add(1)
	} else {
		s.solves.Add(1)
		if ss.plan.Tiled {
			s.tiledSolves.Add(1)
		}
	}
	s.tilesReused.Add(int64(fi.Reuse.TilesReused))
	s.tilesReverified.Add(int64(fi.Reuse.TilesReverified))
	s.tilesResolved.Add(int64(fi.Reuse.TilesResolved))
	s.verifyFailures.Add(int64(fi.Reuse.VerifyFailures))
	e.lv[level].hits.Add(1)
	// The frame's ledger: production time counts as solve time even for
	// replays (a replay's "solve" is re-emitting the recording); the work
	// breakdown stays zero because session frames stream without keeping an
	// hsr.Result.
	cost := &CostLedger{SolveUS: usOf(frameDur), Kernel: ss.plan.Kernel, N: fi.N, K: fi.K, Crossings: fi.Crossings}
	cost.noteTile(fi.Tile)
	cost.TilesReused = fi.Reuse.TilesReused
	if q.Trace.Sampled() {
		replayed := "false"
		if fi.Replayed {
			replayed = "true"
		}
		q.Trace.EndSpanAttrs(tok,
			obs.AttrStr("replayed", replayed),
			obs.AttrStr("kernel", ss.plan.Kernel),
			obs.AttrInt("tiles_reused", int64(fi.Reuse.TilesReused)),
			obs.AttrInt("k", int64(fi.K)))
	}
	q.Trace.SetCost(cost)
	qr := &QueryResult{
		Eye: eye, Cache: "session", Tiled: ss.plan.Tiled, Plan: ss.plan.Explain(),
		Mode: ss.plan.Mode(), Cost: cost,
		Level: level, Levels: e.levels.NumLevels(), LevelCellSize: e.levels.CellSize(level),
		Reuse: &ReuseStats{
			Replayed:        fi.Replayed,
			TilesReused:     fi.Reuse.TilesReused,
			TilesReverified: fi.Reuse.TilesReverified,
			TilesResolved:   fi.Reuse.TilesResolved,
			VerifyFailures:  fi.Reuse.VerifyFailures,
		},
	}
	s.observe(qr)
	return qr, nil
}
