package envelope

import (
	"math"
	"math/rand"
	"testing"

	"terrainhsr/internal/geom"
)

// maxOverSegments is the brute-force evaluation of the upper envelope.
func maxOverSegments(segs []geom.Seg2, x float64) (float64, bool) {
	best, ok := math.Inf(-1), false
	for _, s := range segs {
		s = s.Canon()
		if s.IsVerticalImage() {
			continue
		}
		if x >= s.A.X && x <= s.B.X {
			if z := s.ZAt(x); z > best {
				best, ok = z, true
			}
		}
	}
	return best, ok
}

// none is the nil edge table: the tests' hand-built profiles are evaluated
// on their pieces' own endpoints.
var none Edges

func randSegs(r *rand.Rand, n int) []geom.Seg2 {
	segs := make([]geom.Seg2, n)
	for i := range segs {
		x1 := r.Float64() * 100
		w := 0.5 + r.Float64()*30
		segs[i] = geom.Seg2{
			A: geom.P2(x1, r.Float64()*50),
			B: geom.P2(x1+w, r.Float64()*50),
		}
	}
	return segs
}

func TestFromSegment(t *testing.T) {
	p := FromSegment(geom.S2(3, 1, 1, 2), 7)
	if len(p) != 1 || p[0].X1 != 1 || p[0].X2 != 3 || p[0].Edge != 7 {
		t.Fatalf("bad profile %+v", p)
	}
	if v := FromSegment(geom.S2(1, 0, 1, 5), 0); v != nil {
		t.Fatalf("vertical segment should give empty profile, got %+v", v)
	}
}

func TestMergeDisjoint(t *testing.T) {
	a := FromSegment(geom.S2(0, 1, 1, 1), 0)
	b := FromSegment(geom.S2(2, 5, 3, 5), 1)
	m := none.Merge(a, b)
	if len(m) != 2 {
		t.Fatalf("expected 2 pieces, got %d: %+v", len(m), m)
	}
	if _, cov := m.Eval(1.5, none); cov {
		t.Fatal("gap between disjoint pieces should be uncovered")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeCrossing(t *testing.T) {
	a := FromSegment(geom.S2(0, 0, 4, 4), 0)
	b := FromSegment(geom.S2(0, 4, 4, 0), 1)
	m, st := none.MergeStats(a, b)
	if st.Crossings != 1 {
		t.Fatalf("expected 1 crossing, got %d", st.Crossings)
	}
	if len(m) != 2 {
		t.Fatalf("expected 2 pieces, got %+v", m)
	}
	if z, cov := m.Eval(0.5, none); !cov || math.Abs(z-3.5) > 1e-9 {
		t.Fatalf("Eval(0.5)=%v,%v", z, cov)
	}
	if z, cov := m.Eval(3.5, none); !cov || math.Abs(z-3.5) > 1e-9 {
		t.Fatalf("Eval(3.5)=%v,%v", z, cov)
	}
	if m[0].Edge != 1 || m[1].Edge != 0 {
		t.Fatalf("edge attribution wrong: %+v", m)
	}
}

func TestMergeTieFavorsFront(t *testing.T) {
	// Identical segments: front (first arg) must own the whole result.
	a := FromSegment(geom.S2(0, 1, 2, 1), 0)
	b := FromSegment(geom.S2(0, 1, 2, 1), 1)
	m := none.Merge(a, b)
	for _, pc := range m {
		if pc.Edge != 0 {
			t.Fatalf("tie should favor front edge: %+v", m)
		}
	}
}

func TestMergeJumpDiscontinuity(t *testing.T) {
	// High shelf ends mid-air above a low floor: envelope has a jump.
	a := FromSegment(geom.S2(0, 10, 2, 10), 0)
	b := FromSegment(geom.S2(0, 0, 4, 0), 1)
	m := none.Merge(a, b)
	if len(m) != 2 {
		t.Fatalf("expected 2 pieces, got %+v", m)
	}
	if z, _ := m.Eval(1, none); z != 10 {
		t.Fatalf("Eval(1)=%v", z)
	}
	if z, _ := m.Eval(3, none); z != 0 {
		t.Fatalf("Eval(3)=%v", z)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeEmpty(t *testing.T) {
	a := FromSegment(geom.S2(0, 0, 1, 1), 0)
	if m := none.Merge(a, nil); len(m) != 1 {
		t.Fatalf("merge with empty: %+v", m)
	}
	if m := none.Merge(nil, a); len(m) != 1 {
		t.Fatalf("merge with empty: %+v", m)
	}
	if m := none.Merge(nil, nil); len(m) != 0 {
		t.Fatalf("merge of empties: %+v", m)
	}
}

// The envelope built by divide-and-conquer must agree pointwise with the
// brute-force maximum over all segments.
func TestBuildUpperEnvelopeAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		segs := randSegs(r, 3+trial)
		env := Edges(segs).BuildUpperEnvelope(segs, 0)
		if err := env.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < 200; i++ {
			x := r.Float64() * 135
			want, wantCov := maxOverSegments(segs, x)
			got, gotCov := env.Eval(x, segs)
			if wantCov != gotCov {
				// Tolerate disagreement within Eps of a breakpoint.
				if nearBreakpoint(env, x, 1e-6) || nearEndpoint(segs, x, 1e-6) {
					continue
				}
				t.Fatalf("trial %d x=%v: coverage mismatch got %v want %v", trial, x, gotCov, wantCov)
			}
			if wantCov && math.Abs(want-got) > 1e-6 {
				if nearBreakpoint(env, x, 1e-6) {
					continue
				}
				t.Fatalf("trial %d x=%v: got %v want %v", trial, x, got, want)
			}
		}
	}
}

func nearBreakpoint(p Profile, x, tol float64) bool {
	for _, pc := range p {
		if math.Abs(pc.X1-x) < tol || math.Abs(pc.X2-x) < tol {
			return true
		}
	}
	return false
}

func nearEndpoint(segs []geom.Seg2, x, tol float64) bool {
	for _, s := range segs {
		if math.Abs(s.A.X-x) < tol || math.Abs(s.B.X-x) < tol {
			return true
		}
	}
	return false
}

// Merging must be independent of association order (up to attribution ties).
func TestMergeAssociativityPointwise(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	segs := randSegs(r, 24)
	var profs []Profile
	for i, s := range segs {
		profs = append(profs, FromSegment(s, int32(i)))
	}
	e := Edges(segs)
	left := profs[0]
	for _, p := range profs[1:] {
		left = e.Merge(left, p)
	}
	balanced := e.BuildUpperEnvelope(segs, 0)
	for i := 0; i < 400; i++ {
		x := r.Float64() * 135
		z1, c1 := left.Eval(x, e)
		z2, c2 := balanced.Eval(x, e)
		if c1 != c2 {
			if nearBreakpoint(left, x, 1e-6) || nearBreakpoint(balanced, x, 1e-6) {
				continue
			}
			t.Fatalf("coverage mismatch at %v: %v vs %v", x, c1, c2)
		}
		if c1 && math.Abs(z1-z2) > 1e-6 {
			t.Fatalf("value mismatch at %v: %v vs %v", x, z1, z2)
		}
	}
}

// With an edge table every height and crossing is a function of the edges
// alone, so the incremental fold and the balanced divide-and-conquer build
// the same envelope byte for byte. (TestMergeParallelDeterministicAcrossWorkers
// checks the chunked parallel merge against the sequential one.)
func TestEdgesMakeEnvelopesBuildOrderInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		segs := randSegs(r, 200)
		e := Edges(segs)
		var left Profile
		for i, s := range segs {
			left = e.Merge(left, FromSegment(s, int32(i)))
		}
		balanced := e.BuildUpperEnvelope(segs, 0)
		if len(left) != len(balanced) {
			t.Fatalf("trial %d: %d pieces incrementally, %d balanced", trial, len(left), len(balanced))
		}
		for i := range left {
			if left[i] != balanced[i] {
				t.Fatalf("trial %d piece %d: %+v incrementally, %+v balanced", trial, i, left[i], balanced[i])
			}
		}
	}
}

// CrossX is one float64 per pair of edges: the same bits whichever piece
// of either edge it is computed from and in whichever argument order.
func TestCrossXIsAFunctionOfTheEdgePair(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	segs := randSegs(r, 400)
	e := Edges(segs)
	clipped := func(i int) Piece {
		s := segs[i]
		lo := s.A.X + (s.B.X-s.A.X)*r.Float64()/2
		return Piece{X1: lo, Z1: s.ZAt(lo), X2: s.B.X, Z2: s.B.Z, Edge: int32(i)}
	}
	crossed := 0
	for i := 0; i+1 < len(segs); i += 2 {
		a, b := FromSegment(segs[i], int32(i))[0], FromSegment(segs[i+1], int32(i+1))[0]
		x, ok := e.CrossX(a, b)
		if !ok {
			continue
		}
		crossed++
		if y, _ := e.CrossX(b, a); y != x {
			t.Fatalf("edges %d, %d: CrossX is %v one way and %v the other", i, i+1, x, y)
		}
		if y, _ := e.CrossX(clipped(i+1), clipped(i)); y != x {
			t.Fatalf("edges %d, %d: CrossX of clipped pieces is %v, of whole edges %v", i, i+1, y, x)
		}
	}
	if crossed < 100 {
		t.Fatalf("only %d of %d pairs have crossing lines", crossed, len(segs)/2)
	}
}

func TestClipAboveFullyVisible(t *testing.T) {
	p := FromSegment(geom.S2(0, 0, 10, 0), 0)
	res := none.ClipAbove(geom.S2(2, 5, 8, 5), NoEdge, p)
	if len(res.Spans) != 1 {
		t.Fatalf("spans: %+v", res.Spans)
	}
	sp := res.Spans[0]
	if math.Abs(sp.X1-2) > 1e-9 || math.Abs(sp.X2-8) > 1e-9 {
		t.Fatalf("span %+v", sp)
	}
}

func TestClipAboveFullyHidden(t *testing.T) {
	p := FromSegment(geom.S2(0, 10, 10, 10), 0)
	res := none.ClipAbove(geom.S2(2, 5, 8, 5), NoEdge, p)
	if len(res.Spans) != 0 {
		t.Fatalf("expected hidden, got %+v", res.Spans)
	}
}

func TestClipAboveTouchingIsHidden(t *testing.T) {
	p := FromSegment(geom.S2(0, 5, 10, 5), 0)
	res := none.ClipAbove(geom.S2(2, 5, 8, 5), NoEdge, p)
	if len(res.Spans) != 0 {
		t.Fatalf("touching segment should be occluded, got %+v", res.Spans)
	}
}

func TestClipAboveCrossing(t *testing.T) {
	p := FromSegment(geom.S2(0, 0, 10, 10), 0)
	res := none.ClipAbove(geom.S2(0, 10, 10, 0), NoEdge, p)
	if len(res.Spans) != 1 {
		t.Fatalf("spans: %+v", res.Spans)
	}
	sp := res.Spans[0]
	if math.Abs(sp.X1-0) > 1e-9 || math.Abs(sp.X2-5) > 1e-9 {
		t.Fatalf("span %+v", sp)
	}
	if res.Crossings != 1 {
		t.Fatalf("crossings %d", res.Crossings)
	}
}

func TestClipAboveOverGap(t *testing.T) {
	a := FromSegment(geom.S2(0, 10, 3, 10), 0)
	b := FromSegment(geom.S2(6, 10, 9, 10), 1)
	p := none.Merge(a, b)
	res := none.ClipAbove(geom.S2(1, 5, 8, 5), NoEdge, p)
	if len(res.Spans) != 1 {
		t.Fatalf("spans: %+v", res.Spans)
	}
	sp := res.Spans[0]
	if math.Abs(sp.X1-3) > 1e-9 || math.Abs(sp.X2-6) > 1e-9 {
		t.Fatalf("span over gap wrong: %+v", sp)
	}
}

func TestClipAboveEmptyProfile(t *testing.T) {
	res := none.ClipAbove(geom.S2(0, 1, 4, 2), NoEdge, nil)
	if len(res.Spans) != 1 || res.Spans[0].X1 != 0 || res.Spans[0].X2 != 4 {
		t.Fatalf("empty profile clip: %+v", res.Spans)
	}
}

// Randomized agreement between ClipAbove and pointwise sampling.
func TestClipAboveAgainstSampling(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		segs := randSegs(r, 12)
		p := Edges(segs).BuildUpperEnvelope(segs, 0)
		q := randSegs(r, 1)[0].Canon()
		res := Edges(segs).ClipAbove(q, NoEdge, p)
		qp := Piece{X1: q.A.X, Z1: q.A.Z, X2: q.B.X, Z2: q.B.Z}
		for i := 0; i < 200; i++ {
			x := q.A.X + r.Float64()*(q.B.X-q.A.X)
			pz, cov := p.Eval(x, segs)
			wantVisible := !cov || qp.ZAt(x) > pz+1e-7
			gotVisible := inSpans(res.Spans, x)
			if wantVisible != gotVisible {
				if nearBreakpoint(p, x, 1e-5) || nearSpanBoundary(res.Spans, x, 1e-5) {
					continue
				}
				t.Fatalf("trial %d x=%v: visible mismatch got %v want %v (spans %+v)",
					trial, x, gotVisible, wantVisible, res.Spans)
			}
		}
	}
}

func inSpans(spans []Span, x float64) bool {
	for _, s := range spans {
		if x >= s.X1 && x <= s.X2 {
			return true
		}
	}
	return false
}

func nearSpanBoundary(spans []Span, x, tol float64) bool {
	for _, s := range spans {
		if math.Abs(s.X1-x) < tol || math.Abs(s.X2-x) < tol {
			return true
		}
	}
	return false
}

// Envelope size must stay near-linear in the number of segments
// (Davenport–Schinzel bound m*alpha(m)).
func TestEnvelopeSizeNearLinear(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	segs := randSegs(r, 2000)
	env := none.BuildUpperEnvelope(segs, 0)
	if env.Size() > 4*len(segs) {
		t.Fatalf("envelope size %d too large for %d segments", env.Size(), len(segs))
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	bad := Profile{
		{X1: 0, Z1: 0, X2: 2, Z2: 0, Edge: 0},
		{X1: 1, Z1: 5, X2: 3, Z2: 5, Edge: 1},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected overlap error")
	}
	bad2 := Profile{{X1: 2, Z1: 0, X2: 2, Z2: 0, Edge: 0}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected zero-width error")
	}
}

// MergeParallel must agree with the sequential merge exactly (same chunking
// regardless of worker count, seam pieces coalesced back).
func TestMergeParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	// Large inputs to force chunking (> 2*mergeChunkSize pieces total).
	mkBig := func(seed int64) Profile {
		rr := rand.New(rand.NewSource(seed))
		segs := make([]geom.Seg2, 6000)
		for i := range segs {
			x1 := rr.Float64() * 5000
			segs[i] = geom.S2(x1, rr.Float64()*100, x1+0.5+rr.Float64()*3, rr.Float64()*100)
		}
		return none.BuildUpperEnvelope(segs, 0)
	}
	a, b := mkBig(1), mkBig(2)
	if len(a)+len(b) <= 2*mergeChunkSize {
		t.Fatalf("inputs too small to chunk: %d", len(a)+len(b))
	}
	want := none.Merge(a, b)
	for _, workers := range []int{1, 3, 8} {
		got, st := none.MergeParallelStats(a, b, workers)
		if err := got.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.MaxChunk <= 0 || st.MaxChunk >= st.Steps {
			t.Fatalf("workers=%d: chunk stats implausible: max=%d total=%d", workers, st.MaxChunk, st.Steps)
		}
		// Functions must agree everywhere.
		lo, hi, _ := want.XRange()
		for q := 0; q < 2000; q++ {
			x := lo + r.Float64()*(hi-lo)
			zw, cw := want.Eval(x, none)
			zg, cg := got.Eval(x, none)
			if cw != cg || (cw && math.Abs(zw-zg) > 1e-7) {
				if nearBreakpoint(want, x, 1e-6) || nearBreakpoint(got, x, 1e-6) {
					continue
				}
				t.Fatalf("workers=%d x=%v: (%v,%v) vs (%v,%v)", workers, x, zg, cg, zw, cw)
			}
		}
		// Seam coalescing: piece count must not blow up.
		if len(got) > len(want)+len(got)/50+8 {
			t.Fatalf("workers=%d: %d pieces vs sequential %d (seams not coalesced?)", workers, len(got), len(want))
		}
	}
}

func TestMergeParallelDeterministicAcrossWorkers(t *testing.T) {
	rr := rand.New(rand.NewSource(3))
	segs := make([]geom.Seg2, 7000)
	for i := range segs {
		x1 := rr.Float64() * 4000
		segs[i] = geom.S2(x1, rr.Float64()*50, x1+1+rr.Float64()*4, rr.Float64()*50)
	}
	e := Edges(segs)
	a := e.BuildUpperEnvelope(segs[:3500], 0)
	b := e.BuildUpperEnvelope(segs[3500:], 3500)
	// narrow covers half of a's range, so the last chunk merges a's
	// portion against an empty side and copies it as cut.
	var narrow Profile
	for _, pc := range b {
		if pc.X2 < 2000 {
			narrow = append(narrow, pc)
		}
	}
	for _, b := range []Profile{b, narrow} {
		if n := len(a) + len(b); n <= 2*mergeChunkSize {
			t.Fatalf("%d input pieces do not reach the chunked merge (> %d)", n, 2*mergeChunkSize)
		}
		p1 := e.MergeParallel(a, b, 1)
		p8 := e.MergeParallel(a, b, 8)
		if len(p1) != len(p8) {
			t.Fatalf("piece counts differ: %d vs %d", len(p1), len(p8))
		}
		for i := range p1 {
			if p1[i] != p8[i] {
				t.Fatalf("piece %d differs across worker counts", i)
			}
		}
		// With an edge table the chunked merge emits the sequential
		// sweep's bytes: the cuts, the portions and the seam coalescing
		// move no value.
		seq := e.Merge(a, b)
		if len(p1) != len(seq) {
			t.Fatalf("%d pieces chunked, %d sequential", len(p1), len(seq))
		}
		for i := range p1 {
			if p1[i] != seq[i] {
				t.Fatalf("piece %d: %+v chunked, %+v sequential", i, p1[i], seq[i])
			}
		}
	}
}

func TestPortionClipping(t *testing.T) {
	p := Profile{
		{X1: 0, Z1: 0, X2: 10, Z2: 10, Edge: 1},
		{X1: 12, Z1: 5, X2: 20, Z2: 5, Edge: 2},
	}
	mid := none.portion(p, 4, 15)
	if len(mid) != 2 {
		t.Fatalf("portion: %+v", mid)
	}
	if mid[0].X1 != 4 || math.Abs(mid[0].Z1-4) > 1e-12 || mid[0].X2 != 10 {
		t.Fatalf("clipped first piece wrong: %+v", mid[0])
	}
	if mid[1].X2 != 15 || mid[1].X1 != 12 {
		t.Fatalf("clipped last piece wrong: %+v", mid[1])
	}
	if out := none.portion(p, 10.5, 11.5); len(out) != 0 {
		t.Fatalf("gap portion should be empty: %+v", out)
	}
	if out := none.portion(nil, 0, 1); out != nil {
		t.Fatal("empty profile portion")
	}
}
