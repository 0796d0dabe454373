// Package session carries the frame-to-frame warm state of a flyover: the
// previous frame's merged silhouette envelope, its per-tile visibility
// verdicts, and its recorded piece stream. A State runs each new frame
// through a verify-then-reuse protocol:
//
//   - A bitwise-identical eye replays the recorded stream — byte-identical
//     by construction, no solving at all. This is the dwell/poll fast path.
//   - Any other eye runs a fresh solve seeded with frame coherence: tiles
//     whose previous verdict was culled or hidden are cone-checked against
//     the growing front envelope and skipped when the check confirms them
//     (see tile.Coherence); every check is conservative, so a verification
//     miss degrades to exactly the independent solve's output.
//
// The package owns the protocol, not the solving: callers hand NextFrame a
// closure that runs one clean solve of their pipeline (tiled, paged, or
// monolithic) under the supplied coherence input. That keeps session free of
// engine plumbing and engine free of reuse bookkeeping.
package session

import (
	"terrainhsr/internal/geom"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/tile"
)

// SolveFrameFunc runs one clean solve of the session's terrain, streaming
// every visible piece through emit in the solve's canonical band order. co
// is nil for non-tiled sessions; tiled solves must pass it through to
// tile.Options.Coherence so verdicts are recorded and reused. It returns the
// input size (terrain edges), the crossing count, and the tile effort report
// (zero for monolithic solves).
type SolveFrameFunc func(co *tile.Coherence, emit func(p hsr.VisiblePiece) error) (n int, crossings int64, st tile.Stats, err error)

// FrameInfo reports how one session frame was produced.
type FrameInfo struct {
	// Replayed is true when the frame re-emitted the previous frame's
	// recorded stream without solving (the eye was bitwise identical).
	Replayed bool
	// Reuse counts the verify-then-reuse outcomes of a solved frame; zero
	// for replayed frames and non-tiled sessions.
	Reuse tile.ReuseStats
	// N is the input size, K the pieces delivered, Crossings the image
	// vertex events; Tile is the tile effort report of tiled sessions. A
	// replayed frame reports the recorded frame's values.
	N         int
	K         int
	Crossings int64
	Tile      tile.Stats
}

// State is one flyover session's warm state. It is not safe for concurrent
// use; callers serialize NextFrame (frames are inherently ordered — each
// one's verdicts seed the next).
type State struct {
	tiles    int
	bounds   []tile.WorldBox
	minDepth float64

	hasFrame bool
	eye      geom.Pt3
	verdicts []tile.Verdict
	spare    []tile.Verdict // previous verdict buffer, recycled across frames

	recorded  []hsr.VisiblePiece
	n         int
	crossings int64
	tstats    tile.Stats
}

// New builds a session over a terrain with the given tile count and
// frame-invariant world bounds (from tile.TileBounds) and the request's
// perspective depth floor. tiles == 0 (or nil bounds)
// disables verdict reuse — the session still replays identical eyes.
func New(tiles int, bounds []tile.WorldBox, minDepth float64) *State {
	if len(bounds) != tiles {
		tiles, bounds = 0, nil
	}
	return &State{tiles: tiles, bounds: bounds, minDepth: minDepth}
}

// Invalidate drops all warm state; the next frame runs as the first.
func (s *State) Invalidate() {
	s.hasFrame = false
	s.recorded = s.recorded[:0]
}

// NextFrame produces the frame at eye: a replay when the eye is bitwise
// identical to the committed previous frame's, otherwise a coherence-seeded
// clean solve through solve, recording the stream and the fresh verdicts for
// the frame after. The pieces delivered to emit are byte-identical to an
// independent solve of the same frame. A solve or emit error invalidates the
// warm state (the recording would be incomplete); a failed replay emit keeps
// it, since the recording itself is untouched.
func (s *State) NextFrame(eye geom.Pt3, solve SolveFrameFunc, emit func(p hsr.VisiblePiece) error) (*FrameInfo, error) {
	if s.hasFrame && eye == s.eye {
		for _, pc := range s.recorded {
			if err := emit(pc); err != nil {
				return nil, err
			}
		}
		return &FrameInfo{
			Replayed: true,
			N:        s.n, K: len(s.recorded), Crossings: s.crossings,
			Tile: s.tstats,
		}, nil
	}

	var co *tile.Coherence
	if s.tiles > 0 {
		co = &tile.Coherence{Bounds: s.bounds, Eye: eye, MinDepth: s.minDepth, Out: s.spare}
		if s.hasFrame {
			co.Prev = s.verdicts
		}
	}
	rec := s.recorded[:0]
	n, crossings, st, err := solve(co, func(pc hsr.VisiblePiece) error {
		rec = append(rec, pc)
		return emit(pc)
	})
	if err != nil {
		s.Invalidate()
		return nil, err
	}

	s.hasFrame = true
	s.eye = eye
	s.recorded = rec
	s.n, s.crossings, s.tstats = n, crossings, st
	info := &FrameInfo{N: n, K: len(rec), Crossings: crossings, Tile: st}
	if co != nil {
		s.spare = s.verdicts
		s.verdicts = co.Out
		info.Reuse = co.Stats
	}
	return info, nil
}
