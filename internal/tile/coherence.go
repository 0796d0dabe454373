package tile

import (
	"math"

	"terrainhsr/internal/geom"
)

// This file is the frame-coherence layer of the tiled solver: per-tile
// visibility verdicts recorded at the band barrier, frame-invariant world
// bounding boxes, and the O(1) conservative cone check that decides — for a
// new eye — whether a tile's previous-frame verdict still holds.
//
// The reuse contract is strict: a cone pass must imply that the exact
// per-tile cull check (front.CoversAbove over the tile's transformed extent)
// would also pass, so a reused tile takes exactly the branch the independent
// solve takes and the output stays byte-identical. The implication holds in
// floating point because every bound is evaluated through monotone
// operations: subtraction, and division by a positive depth, are monotone in
// each argument under round-to-nearest, so the extreme transformed
// coordinates of a world box are attained at its corners; and CoversAbove is
// monotone (an envelope covering a wider interval at a higher height covers
// every sub-interval at any lower height). Tiles that fail the cone check
// simply fall back to the exact check and, if that fails too, to a clean
// solve — a verification miss can only cost time, never change output.
//
// Only culled and hidden verdicts are ever reused. A solved tile — even one
// whose owned pieces were all clipped away — contributes its silhouette
// segments to the front envelope, and skipping that contribution perturbs
// the envelope's byte representation enough to shift clip crossings by an
// ULP downstream. Cull reuse has no such hazard: a culled tile contributes
// nothing at all.

// Verdict classifies one tile's outcome within a solved frame.
type Verdict uint8

const (
	// VerdictNone means the tile has no recorded outcome.
	VerdictNone Verdict = iota
	// VerdictCulled means the tile was skipped: the front envelope already
	// covered its entire bounding box, so it was never solved.
	VerdictCulled
	// VerdictHidden means the tile was solved but every owned piece was
	// clipped away by the front envelope at the band barrier.
	VerdictHidden
	// VerdictVisible means the tile contributed at least one clipped piece.
	VerdictVisible
)

// String names the verdict for logs and stats.
func (v Verdict) String() string {
	switch v {
	case VerdictCulled:
		return "culled"
	case VerdictHidden:
		return "hidden"
	case VerdictVisible:
		return "visible"
	}
	return "none"
}

// WorldBox is a tile's frame-invariant world-space bounding box: the depth
// (X) and across (Y) ranges of its vertex rectangle — owned rows of its band
// times owned columns, both inclusive — and the maximum height H over it.
// Valid=false marks a tile with no known height bound; such a tile is never
// cone-verified.
type WorldBox struct {
	X0, X1 float64
	Y0, Y1 float64
	H      float64
	Valid  bool
}

// Cone projects the box conservatively through the perspective at eye: the
// returned interval [lo, hi] contains the transformed Y of every point of
// the box, and z is an upper bound on its transformed height. ok=false means
// the box reaches depths below minDepth (or has no bound), where the
// projection is unbounded; the caller must then fall back to exact checks.
func (wb WorldBox) Cone(eye geom.Pt3, minDepth float64) (lo, hi, z float64, ok bool) {
	if !wb.Valid {
		return 0, 0, 0, false
	}
	if minDepth <= 0 {
		minDepth = geom.DefaultMinDepth
	}
	d0, d1 := wb.X0-eye.X, wb.X1-eye.X
	if d0 < minDepth || d1 < minDepth {
		return 0, 0, 0, false
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, wy := range [2]float64{wb.Y0, wb.Y1} {
		for _, d := range [2]float64{d0, d1} {
			v := (wy - eye.Y) / d
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	z = math.Max((wb.H-eye.Z)/d0, (wb.H-eye.Z)/d1)
	return lo, hi, z, true
}

// TileBounds computes every tile's world bounding box from the untransformed
// lattice: owned cell rows and columns, both ends inclusive — exactly the
// vertex rectangle the per-tile cull bounds after the per-frame transform —
// so a Cone projection of the box bounds the tile's transformed extent for
// any eye. A paged lattice's boxes need no paging (see PagedGrid.worldBox).
func TileBounds(l Lattice, p *Partition) ([]WorldBox, error) {
	if err := l.check(p); err != nil {
		return nil, err
	}
	out := make([]WorldBox, p.NumTiles())
	for b := 0; b < p.NumBands; b++ {
		for c := 0; c < p.NumCols; c++ {
			out[b*p.NumCols+c] = l.worldBox(p.TileCells(b, c))
		}
	}
	return out, nil
}

// ReuseStats counts the verify-then-reuse outcomes of one coherent solve.
type ReuseStats struct {
	// TilesReused counts tiles skipped because the previous frame's culled
	// or hidden verdict still held under the conservative cone check.
	TilesReused int
	// TilesReverified counts tiles whose cone check failed but whose exact
	// cull check culled them anyway.
	TilesReverified int
	// TilesResolved counts tiles that ran a clean solve this frame.
	TilesResolved int
	// VerifyFailures counts cone checks that could not confirm the prior
	// verdict (the tile then fell back to the exact check or a clean solve).
	VerifyFailures int
}

// Coherence activates frame-coherent verify-then-reuse in Solve (via
// Options.Coherence): tiles whose previous-frame verdict was culled or
// hidden are cone-checked against the current front envelope and skipped
// when the check passes; every tile's fresh verdict is recorded for
// the next frame. Bounds must come from TileBounds over the untransformed
// lattice of the terrain the solve runs on (for paged solves, the same
// height source), so the cone check stays a strict strengthening of the
// exact cull.
type Coherence struct {
	// Bounds holds one frame-invariant world box per tile.
	Bounds []WorldBox
	// Eye is the frame's viewpoint in world space.
	Eye geom.Pt3
	// MinDepth is the frame's effective perspective depth floor (<= 0 picks
	// the geom default).
	MinDepth float64
	// Prev holds the previous frame's verdicts; nil means no prior frame
	// (verdicts are still recorded for the next one).
	Prev []Verdict
	// Out receives this frame's verdicts; the solve allocates it when nil.
	Out []Verdict
	// Stats receives this frame's reuse counters.
	Stats ReuseStats
}

// reusable reports whether tile ti's prior verdict is eligible for cone
// verification. Only culled and hidden tiles qualify: they contributed
// nothing to the output, so skipping them on a confirmed verdict cannot
// change a single byte. Visible tiles always re-solve.
func (co *Coherence) reusable(ti int) bool {
	return ti < len(co.Prev) && ti < len(co.Bounds) &&
		(co.Prev[ti] == VerdictCulled || co.Prev[ti] == VerdictHidden)
}

// prepare resets the per-solve outputs and sizes Out.
func (co *Coherence) prepare(tiles int) {
	if len(co.Out) != tiles {
		co.Out = make([]Verdict, tiles)
	} else {
		for i := range co.Out {
			co.Out[i] = VerdictNone
		}
	}
	co.Stats = ReuseStats{}
}
