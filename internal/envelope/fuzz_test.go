package envelope

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"terrainhsr/internal/geom"
)

// decodeSegs turns fuzz bytes into a bounded set of well-formed segments.
func decodeSegs(data []byte) []geom.Seg2 {
	var segs []geom.Seg2
	for len(data) >= 8 && len(segs) < 64 {
		x1 := float64(binary.LittleEndian.Uint16(data[0:2])) / 64
		z1 := float64(int16(binary.LittleEndian.Uint16(data[2:4]))) / 64
		dx := 0.25 + float64(binary.LittleEndian.Uint16(data[4:6]))/256
		z2 := float64(int16(binary.LittleEndian.Uint16(data[6:8]))) / 64
		segs = append(segs, geom.S2(x1, z1, x1+dx, z2))
		data = data[8:]
	}
	return segs
}

// FuzzEnvelopeMerge checks, for arbitrary segment sets, that the balanced
// divide-and-conquer envelope (a) validates structurally, (b) agrees with
// the brute-force pointwise maximum away from breakpoints, and (c) comes
// out piece for piece the same from the recursive build and from
// BuildUpperEnvelopeInto and MergeStatsInto on buffers an earlier build
// left dirty, under the segments' edge table and under the nil one.
func FuzzEnvelopeMerge(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 10, 0, 0, 1, 2, 0, 5, 0, 20, 0, 255, 0})
	f.Add(make([]byte, 64))
	f.Add([]byte{0xff, 0xff, 0x00, 0x80, 0x10, 0x00, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		segs := decodeSegs(data)
		e := Edges(segs)
		env := e.BuildUpperEnvelope(segs, 0)
		if err := env.Validate(); err != nil {
			t.Fatalf("invalid envelope: %v", err)
		}
		checkIntoIdentity(t, segs)
		lo, hi, ok := env.XRange()
		if !ok {
			return
		}
		for i := 0; i < 32; i++ {
			x := lo + (hi-lo)*float64(i)/32
			want, wantCov := bruteMax(segs, x)
			got, gotCov := env.Eval(x, e)
			if nearAnyBreakOrEnd(env, segs, x, 1e-6) {
				continue
			}
			if wantCov != gotCov {
				t.Fatalf("coverage mismatch at %v: got %v want %v", x, gotCov, wantCov)
			}
			if wantCov && math.Abs(want-got) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("value mismatch at %v: got %v want %v", x, got, want)
			}
		}
	})
}

// FuzzClipAbove checks clipping consistency: visible spans lie within the
// query segment and agree with sampling.
func FuzzClipAbove(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 10, 0, 0, 1, 2, 0, 5, 0, 20, 0, 255, 0, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 16 {
			return
		}
		segs := decodeSegs(data[8:])
		q := decodeSegs(data[:8])
		if len(q) == 0 {
			return
		}
		p := none.BuildUpperEnvelope(segs, 0)
		res := none.ClipAbove(q[0], NoEdge, p)
		s := q[0].Canon()
		for _, sp := range res.Spans {
			if sp.X1 < s.A.X-1e-9 || sp.X2 > s.B.X+1e-9 {
				t.Fatalf("span %+v outside query segment %+v", sp, s)
			}
			if sp.X2 < sp.X1 {
				t.Fatalf("inverted span %+v", sp)
			}
		}
		// Spans must be disjoint and ordered.
		for i := 1; i < len(res.Spans); i++ {
			if res.Spans[i].X1 < res.Spans[i-1].X2-1e-9 {
				t.Fatalf("overlapping spans %+v %+v", res.Spans[i-1], res.Spans[i])
			}
		}
	})
}

// checkIntoIdentity builds segs' envelope, and merges its two halves'
// envelopes, into buffers dirtied by the reversed set's build, and compares
// them with the allocating recursive build and MergeStats.
func checkIntoIdentity(t *testing.T, segs []geom.Seg2) {
	rev := slices.Clone(segs)
	slices.Reverse(rev)
	mid := len(segs) / 3
	for _, e := range []Edges{segs, nil} {
		var sc BuildScratch
		dst := e.BuildUpperEnvelopeInto(nil, rev, 0, &sc)
		dst = e.BuildUpperEnvelopeInto(dst, segs, 0, &sc)
		if want := refBuild(e, segs, 0); !slices.Equal(dst, want) {
			t.Fatalf("nil table %v: reused build has %d pieces, recursive build %d", e == nil, len(dst), len(want))
		}
		a, b := refBuild(e, segs[:mid], 0), refBuild(e, segs[mid:], int32(mid))
		want, wantSt := e.MergeStats(a, b)
		if got, st := e.MergeStatsInto(dst, a, b); !slices.Equal(got, want) || st != wantSt {
			t.Fatalf("nil table %v: reused merge has %d pieces %+v, MergeStats %d %+v", e == nil, len(got), st, len(want), wantSt)
		}
	}
}

func bruteMax(segs []geom.Seg2, x float64) (float64, bool) {
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

func nearAnyBreakOrEnd(p Profile, segs []geom.Seg2, x, tol float64) bool {
	for _, pc := range p {
		if math.Abs(pc.X1-x) < tol || math.Abs(pc.X2-x) < tol {
			return true
		}
	}
	for _, s := range segs {
		if math.Abs(s.A.X-x) < tol || math.Abs(s.B.X-x) < tol {
			return true
		}
	}
	return false
}
