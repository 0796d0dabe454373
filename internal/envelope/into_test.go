package envelope

import (
	"math/rand"
	"slices"
	"testing"

	"terrainhsr/internal/geom"
)

// refBuild is BuildUpperEnvelope's recursive definition, allocating a fresh
// profile at every leaf and every merge: the reference the scratch-backed
// build must reproduce piece for piece.
func refBuild(e Edges, segs []geom.Seg2, base int32) Profile {
	switch len(segs) {
	case 0:
		return nil
	case 1:
		return FromSegment(segs[0], base)
	}
	mid := len(segs) / 2
	return e.Merge(refBuild(e, segs[:mid], base), refBuild(e, segs[mid:], base+int32(mid)))
}

// mixedSegs draws segments that also exercise the sweep's corner cases:
// image-vertical segments, exact duplicates (ties) and collinear
// continuations of the previous segment (runs that appendPiece coalesces).
func mixedSegs(r *rand.Rand, n int) []geom.Seg2 {
	segs := randSegs(r, n)
	for i := 1; i < n; i++ {
		prev := segs[i-1]
		switch r.Intn(10) {
		case 0:
			segs[i].B.X = segs[i].A.X
		case 1:
			segs[i] = prev
		case 2:
			d := prev.B.X - prev.A.X
			segs[i] = geom.Seg2{A: prev.B, B: geom.P2(prev.B.X+d, 2*prev.B.Z-prev.A.Z)}
		}
	}
	return segs
}

// poison fills a buffer's spare capacity with pieces no build produces, so
// a reuse bug that reads stale storage shows up as a wrong piece.
func poison(p Profile) Profile {
	p = p[:cap(p)]
	for i := range p {
		p[i] = Piece{X1: -1e9, Z1: 1e9, X2: 1e9, Z2: 1e9, Edge: 1 << 30}
	}
	return p[:0]
}

// TestBuildUpperEnvelopeIntoMatchesFresh builds envelopes of random segment
// sets, under the segments' own edge table and under the nil table with the
// band front's NoEdge base, into buffers and a scratch that earlier, larger
// builds left dirty, and demands exactly the pieces and edge ids of the
// allocating recursive build.
func TestBuildUpperEnvelopeIntoMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var dst Profile
	var sc BuildScratch
	for trial := 0; trial < 300; trial++ {
		segs := mixedSegs(r, r.Intn(160))
		e, base := Edges(segs), int32(0)
		if trial%2 == 1 {
			e, base = nil, NoEdge
		}
		want := refBuild(e, segs, base)
		dst = e.BuildUpperEnvelopeInto(poison(dst), segs, base, &sc)
		if !slices.Equal(dst, want) {
			t.Fatalf("trial %d (%d segments, nil table %v): %d pieces from reused buffers, %d fresh",
				trial, len(segs), e == nil, len(dst), len(want))
		}
		if got := e.BuildUpperEnvelope(segs, base); !slices.Equal(got, want) {
			t.Fatalf("trial %d: BuildUpperEnvelope differs from the recursive build", trial)
		}
		for lv := range sc.levels {
			sc.levels[lv][0], sc.levels[lv][1] = poison(sc.levels[lv][0]), poison(sc.levels[lv][1])
		}
	}
}

// TestMergeStatsIntoMatchesMergeStats merges random envelope pairs, empty
// ones included, into a dirty reused buffer and demands MergeStats' pieces,
// edge ids and Stats.
func TestMergeStatsIntoMatchesMergeStats(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var dst Profile
	for trial := 0; trial < 300; trial++ {
		segs := mixedSegs(r, r.Intn(120))
		e, base := Edges(segs), int32(0)
		if trial%2 == 1 {
			e, base = nil, NoEdge
		}
		mid := 0
		if len(segs) > 0 {
			mid = r.Intn(len(segs) + 1)
		}
		a := refBuild(e, segs[:mid], base)
		b := refBuild(e, segs[mid:], base+int32(mid))
		want, wantSt := e.MergeStats(a, b)
		var st Stats
		dst, st = e.MergeStatsInto(poison(dst), a, b)
		if !slices.Equal(dst, want) || st != wantSt {
			t.Fatalf("trial %d (nil table %v): %d pieces %+v into a reused buffer, %d pieces %+v fresh",
				trial, e == nil, len(dst), st, len(want), wantSt)
		}
	}
}

// TestIntoBuffersAllocationFree pins that a warm build and merge into
// reused buffers allocate nothing.
func TestIntoBuffersAllocationFree(t *testing.T) {
	segs := mixedSegs(rand.New(rand.NewSource(3)), 300)
	var env, merged Profile
	var sc BuildScratch
	front := refBuild(nil, segs[:100], NoEdge)
	run := func() {
		env = none.BuildUpperEnvelopeInto(env, segs, NoEdge, &sc)
		merged, _ = none.MergeStatsInto(merged, front, env)
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("warm build and merge allocate %v times, want 0", n)
	}
}
