package engine

import (
	"fmt"

	"terrainhsr/internal/hsr"
	"terrainhsr/internal/session"
	"terrainhsr/internal/tile"
)

// This file wires flyover sessions (internal/session) into the executor:
// marking a plan as a session's, building the frame-invariant per-tile
// world bounds once, and running each frame through the pipeline the plan
// chose with the session's coherence state attached.

// tileBounds builds (once) the frame-invariant world bounding box of every
// tile from the canonical lattice, the input to the session cone checks.
// It requires EnsureTiles.
func (e *Executor) tileBounds() ([]tile.WorldBox, error) {
	e.boundsOnce.Do(func() {
		lat, err := e.lattice(nil)
		if err != nil {
			e.boundsErr = err
			return
		}
		e.bounds, e.boundsErr = tile.TileBounds(lat, e.part)
	})
	return e.bounds, e.boundsErr
}

// NewSessionState builds the warm state for a flyover session and marks
// plan — the plan of req, a single perspective frame (any eye: the plan
// depends only on shape) — as the session's: its mode becomes "coherent"
// over the pipeline it explains, and it routes every frame of the session.
// Tiled plans get per-tile bounds and verdict reuse; monolithic plans get a
// replay-only session (identical eyes still skip the solve entirely).
func (e *Executor) NewSessionState(plan *Plan, req Request) (*session.State, error) {
	if !plan.Perspective || len(req.Eyes) != 1 {
		return nil, fmt.Errorf("terrainhsr: a session plans one perspective frame at a time, got %d eyes", len(req.Eyes))
	}
	plan.addReason("flyover session over %s frames: identical eyes replay the recorded stream, moving eyes verify-then-reuse the prior frame's tile verdicts", plan.Mode())
	plan.Session = true
	if !plan.Tiled {
		return session.New(0, nil, req.MinDepth), nil
	}
	if err := e.EnsureTiles(); err != nil {
		return nil, err
	}
	bounds, err := e.tileBounds()
	if err != nil {
		return nil, err
	}
	return session.New(e.part.NumTiles(), bounds, req.MinDepth), nil
}

// RunSessionFrame produces one session frame at req.Eyes[0], streaming its
// pieces to sink: a replay when the eye matches the previous frame exactly,
// otherwise a clean solve of the plan's pipeline warm-started from the
// session state. Output is byte-identical to RunStream of the same frame.
func (e *Executor) RunSessionFrame(plan *Plan, req Request, st *session.State, sink Sink) (*session.FrameInfo, error) {
	if !plan.Perspective || len(req.Eyes) != 1 {
		return nil, fmt.Errorf("terrainhsr: a session frame solves a single eye, got %d", len(req.Eyes))
	}
	if err := req.checkFinite(); err != nil {
		return nil, err
	}
	solve := func(co *tile.Coherence, emit func(hsr.VisiblePiece) error) (int, int64, tile.Stats, error) {
		oc, err := e.solveView(plan, req, frameView(req, 0), emit, co)
		if err != nil {
			return 0, 0, tile.Stats{}, err
		}
		return oc.Res.N, oc.Res.Crossings, oc.Tile, nil
	}
	return st.NextFrame(req.Eyes[0], solve, func(p hsr.VisiblePiece) error { return sink(p) })
}
