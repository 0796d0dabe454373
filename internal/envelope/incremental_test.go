package envelope

import (
	"math"
	"math/rand"
	"testing"

	"terrainhsr/internal/geom"
)

// TestIncrementalMergeMatchesFromScratch is the invariant both the band
// barrier and frame-coherent sessions lean on: a profile grown by merging
// one chunk of segments at a time (bands of a solve, frames of a flyover)
// equals — pointwise — the envelope built from scratch over everything
// merged so far, at EVERY intermediate step, not just at the end. Chunks of
// size zero (an empty band: nothing to merge) and size one (a single-tile
// band) are included deliberately; the byte representation may differ
// between the two constructions (merge order moves breakpoints by ULPs),
// which is exactly why sessions carry the envelope forward instead of
// rebuilding it, and why this test samples values instead of comparing
// bytes.
func TestIncrementalMergeMatchesFromScratch(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		segs := randSegs(r, 3+r.Intn(40))
		// Split into chunks with deliberate degenerate sizes: the first
		// trial pattern forces an empty chunk and a singleton up front.
		var chunks [][]geom.Seg2
		if trial%3 == 0 {
			chunks = append(chunks, nil, segs[:1])
			segs = segs[1:]
		}
		for len(segs) > 0 {
			n := 1 + r.Intn(5)
			if n > len(segs) {
				n = len(segs)
			}
			chunks = append(chunks, segs[:n])
			segs = segs[n:]
		}

		var acc Profile
		var seen []geom.Seg2
		for step, chunk := range chunks {
			if len(chunk) > 0 {
				acc = none.Merge(acc, none.BuildUpperEnvelope(chunk, NoEdge))
				seen = append(seen, chunk...)
			}
			scratch := none.BuildUpperEnvelope(seen, NoEdge)
			if len(seen) == 0 {
				if acc.Size() != 0 {
					t.Fatalf("trial %d step %d: empty input produced %d pieces", trial, step, acc.Size())
				}
				continue
			}
			for i := 0; i < 150; i++ {
				x := r.Float64()*140 - 5
				z1, c1 := acc.Eval(x, none)
				z2, c2 := scratch.Eval(x, none)
				if c1 != c2 {
					if nearBreakpoint(acc, x, 1e-6) || nearBreakpoint(scratch, x, 1e-6) {
						continue
					}
					t.Fatalf("trial %d step %d: coverage mismatch at %v: incremental %v, scratch %v",
						trial, step, x, c1, c2)
				}
				if c1 && math.Abs(z1-z2) > 1e-6 {
					t.Fatalf("trial %d step %d: value mismatch at %v: incremental %v, scratch %v",
						trial, step, x, z1, z2)
				}
			}
		}
	}
}

// TestIncrementalMergeDeterministic pins byte determinism of the
// incremental construction itself: the same chunks merged in the same order
// yield the same profile, bit for bit — the property that makes session
// replay and cross-run comparison sound.
func TestIncrementalMergeDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	segs := randSegs(r, 30)
	build := func() Profile {
		var acc Profile
		for i := 0; i < len(segs); i += 4 {
			end := i + 4
			if end > len(segs) {
				end = len(segs)
			}
			acc = none.Merge(acc, none.BuildUpperEnvelope(segs[i:end], NoEdge))
		}
		return acc
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("re-running the same merges changed the size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("piece %d differs between identical merge runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
