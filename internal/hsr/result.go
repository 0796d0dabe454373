package hsr

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/metrics"
	"terrainhsr/internal/order"
	"terrainhsr/internal/pct"
	"terrainhsr/internal/pram"
	"terrainhsr/internal/terrain"
)

// VisiblePiece is one maximal visible portion of a terrain edge in the
// image plane. For edges projecting vertically, X1 == X2 and [Z1, Z2] is
// the visible height range.
type VisiblePiece struct {
	Edge int32
	Span envelope.Span
}

// Result is the outcome of a hidden-surface-removal run.
type Result struct {
	// N is the number of input edges (the paper's n).
	N int
	// Pieces lists the visible portions, sorted by (Edge, Span.X1, Span.Z1).
	Pieces []VisiblePiece
	// Crossings counts the crossings between edges and prefix profiles
	// discovered during the run; each is a vertex of the displayed image.
	Crossings int64
	// IntersectionsI is the count of all pairwise image-plane crossings,
	// populated only by the AllPairs baseline (the quantity I that
	// intersection-sensitive algorithms pay for).
	IntersectionsI int64
	// Counters are the charged elementary operations.
	Counters metrics.Counters
	// Acct is the PRAM phase accounting (nil for algorithms that bypass it).
	Acct *pram.Accounting
	// Phase1 and Phase2 hold per-layer statistics when the algorithm runs
	// through the PCT.
	Phase1 []pct.Phase1Stats
	Phase2 []pct.Phase2Stats
}

// K returns the output-size measure: the number of visible pieces. The
// displayed image has Theta(K) vertices and edges (each piece is an edge of
// the image graph; vertices are piece endpoints, at most 2K).
func (r *Result) K() int { return len(r.Pieces) }

// Work returns the total charged operations (the paper's work measure).
func (r *Result) Work() int64 { return r.Counters.Total() }

// VisibleLength is the summed image-plane length of all visible pieces —
// a robust scalar for cross-algorithm comparisons.
func (r *Result) VisibleLength() float64 {
	sum := 0.0
	for _, p := range r.Pieces {
		dx := p.Span.X2 - p.Span.X1
		dz := p.Span.Z2 - p.Span.Z1
		sum += math.Hypot(dx, dz)
	}
	return sum
}

// sortPieces normalizes piece order for deterministic output and comparison.
func sortPieces(ps []VisiblePiece) {
	slices.SortFunc(ps, ComparePieces)
}

// ComparePieces orders pieces canonically by (Edge, Span.X1, Span.Z1), the
// order of every Result's Pieces.
func ComparePieces(a, b VisiblePiece) int {
	if a.Edge != b.Edge {
		return cmp.Compare(a.Edge, b.Edge)
	}
	if a.Span.X1 != b.Span.X1 {
		return cmp.Compare(a.Span.X1, b.Span.X1)
	}
	return cmp.Compare(a.Span.Z1, b.Span.Z1)
}

// Prepared bundles the view-dependent preprocessing shared by all
// algorithms: the depth order (the separator-tree step) and the ordered
// image segments. Every algorithm runs on one. A Prepared from Prepare is
// immutable and safe for concurrent reuse across solves. One returned by a
// PrepareArena is backed by the arena's storage, such as that of a tile's
// or a perspective frame's set-up arena: it is neither immutable nor
// shareable, and it is valid only until the arena prepares again or is
// released. The same holds for the Result of a SequentialTree solve of it,
// which lives in the arena too, with its Pieces and accounting; every
// other Result owns its storage.
type Prepared struct {
	t   *terrain.Terrain
	ord *order.Result
	// segs[i] is the canonical image segment of the i-th edge in depth
	// order: the edge table of every profile a solve builds, so piece Edge
	// ids are depth positions.
	segs envelope.Edges
	// arena is the PrepareArena backing the preparation, which also holds
	// its SequentialTree working memory and Result; nil on a preparation
	// from Prepare, whose solves may run concurrently.
	arena *PrepareArena
}

// Prepare computes the depth order for a terrain once, for repeated solves.
func Prepare(t *terrain.Terrain) (*Prepared, error) {
	p := new(Prepared)
	if err := p.prepare(t, new(order.Scratch)); err != nil {
		return nil, err
	}
	return p, nil
}

// PrepareArena is reusable storage for one preparation at a time: the
// depth order, its segment table and the working memory that computes
// them, plus a SequentialTree solve's working memory and Result. A set-up
// arena that prepares and solves terrains of similar size in a loop embeds
// one and allocates nothing once the buffers have grown. The zero value is
// ready to use.
type PrepareArena struct {
	prep  Prepared
	sc    order.Scratch
	sweep sweepBuf
	// res, its accounting acct and its pieces out are a SequentialTree
	// solve's output.
	res  Result
	acct pram.Accounting
	out  []VisiblePiece
}

// Prepare makes the arena's preparation the one Prepare(t) returns and
// returns it. The result is backed by the arena (see Prepared), and so is
// the Result of a SequentialTree solve of it; no other Result solved from
// it refers to the arena's storage. On error the arena's contents are
// unspecified.
func (a *PrepareArena) Prepare(t *terrain.Terrain) (*Prepared, error) {
	if err := a.prep.prepare(t, &a.sc); err != nil {
		return nil, err
	}
	a.prep.arena = a
	return &a.prep, nil
}

// prepare makes p the preparation of t, reusing the storage of p's depth
// order and segment table and the working memory sc.
func (p *Prepared) prepare(t *terrain.Terrain, sc *order.Scratch) error {
	if t == nil || t.NumEdges() == 0 {
		return fmt.Errorf("hsr: empty terrain")
	}
	if p.ord == nil {
		p.ord = new(order.Result)
	}
	if err := order.ComputeInto(t, p.ord, sc); err != nil {
		return err
	}
	p.t = t
	p.segs = slices.Grow(p.segs[:0], len(p.ord.EdgeOrder))
	for _, e := range p.ord.EdgeOrder {
		p.segs = append(p.segs, t.EdgeImageSeg(int(e)))
	}
	return nil
}

// Terrain exposes the terrain the preparation was computed for.
func (p *Prepared) Terrain() *terrain.Terrain { return p.t }

// clipOne computes the visible spans of edge pos against profile p, whose
// pieces' edges are in segs, handling vertical-image segments, and reports
// the crossing count.
func clipOne(segs envelope.Edges, pos int, p envelope.Profile) ([]envelope.Span, int, int) {
	s := segs[pos].Canon()
	if s.IsVerticalImage() {
		x := s.A.X
		zLo, zHi := s.A.Z, s.B.Z
		z, covered := p.Eval(x, segs)
		switch {
		case !covered:
			return []envelope.Span{{X1: x, Z1: zLo, X2: x, Z2: zHi}}, 0, 1
		case zHi > z+geom.Eps:
			cross := 0
			if zLo < z {
				cross = 1
			}
			return []envelope.Span{{X1: x, Z1: geom.Max(zLo, z), X2: x, Z2: zHi}}, cross, 1
		default:
			return nil, 0, 1
		}
	}
	res := segs.ClipAbove(s, int32(pos), p)
	return res.Spans, res.Crossings, res.Steps
}
