package hsr

import (
	"terrainhsr/internal/envelope"
	"terrainhsr/internal/geom"
	"terrainhsr/internal/pram"
)

// Sequential runs the output-sensitive sequential algorithm of Reif and Sen
// (the paper's section 2 description) on the prepared order: process edges
// front to back, maintain the upper profile of the edges seen so far, clip
// each new edge against the profile to obtain its visible portions, and
// fold the edge into the profile.
//
// The profile here is the flat slice representation, so a profile update
// costs O(|profile|); the asymptotic refinement of Reif-Sen (balanced
// dynamic structures) matters on adversarial inputs but not for the role
// this function plays as the trusted sequential baseline (TH5).
func (prep *Prepared) Sequential() (*Result, error) {
	res := &Result{N: prep.t.NumEdges(), Acct: &pram.Accounting{}}
	var profile envelope.Profile
	var maxTask, total int64
	for pos, seg := range prep.segs {
		spans, crossings, steps := clipOne(prep.segs, pos, profile)
		res.Crossings += int64(crossings)
		res.Counters.ClipSteps += int64(steps)
		res.Counters.Crossings += int64(crossings)
		res.Counters.Spans += int64(len(spans))
		for _, sp := range spans {
			res.Pieces = append(res.Pieces, VisiblePiece{Edge: prep.ord.EdgeOrder[pos], Span: sp})
		}
		cost := int64(steps)
		if !seg.Canon().IsVerticalImage() {
			var st envelope.Stats
			profile, st = prep.segs.MergeStats(profile, envelope.FromSegment(seg, int32(pos)))
			res.Counters.MergeSteps += int64(st.Steps)
			cost += int64(st.Steps)
		}
		total += cost
		if cost > maxTask {
			maxTask = cost
		}
	}
	res.Acct.AddPhase("sequential", len(prep.segs), maxTask, total)
	sortPieces(res.Pieces)
	return res, nil
}

// BruteForce is the ground-truth reference: for every edge independently it
// rebuilds the upper envelope of all preceding edges by balanced
// divide-and-conquer and clips the edge against it. Quadratic (and worse)
// by design; use only on small inputs. Its merge order is entirely
// different from Sequential's incremental order, which makes agreement
// between the two a meaningful cross-check.
func (prep *Prepared) BruteForce() (*Result, error) {
	res := &Result{N: prep.t.NumEdges()}
	for pos := range prep.segs {
		env := prep.segs.BuildUpperEnvelope(prep.segs[:pos], 0)
		spans, crossings, steps := clipOne(prep.segs, pos, env)
		res.Crossings += int64(crossings)
		res.Counters.ClipSteps += int64(steps)
		res.Counters.Crossings += int64(crossings)
		res.Counters.Spans += int64(len(spans))
		for _, sp := range spans {
			res.Pieces = append(res.Pieces, VisiblePiece{Edge: prep.ord.EdgeOrder[pos], Span: sp})
		}
	}
	sortPieces(res.Pieces)
	return res, nil
}

// AllPairs is the intersection-sensitive baseline: it pays for every
// pairwise crossing I of the projected segments (the way general-scene
// parallel algorithms such as Goodrich-Ghouse-Bright do for arbitrary
// scenes) before filtering visibility. Visible pieces are computed exactly
// as in Sequential; the charged work additionally includes the Theta(n^2)
// pair tests and the I discovered crossings, which is the quantity the
// paper's output-sensitive algorithm avoids (experiment TH3).
func (prep *Prepared) AllPairs() (*Result, error) {
	res := &Result{N: prep.t.NumEdges()}
	// Pay for all pairwise crossings in the image plane.
	segs := prep.segs
	var pairTests, found int64
	for i := 0; i < len(segs); i++ {
		if segs[i].IsVerticalImage() {
			continue
		}
		for j := i + 1; j < len(segs); j++ {
			if segs[j].IsVerticalImage() {
				continue
			}
			pairTests++
			if _, ok := geom.SegCrossOnOverlap(segs[i], segs[j]); ok {
				found++
			}
		}
	}
	res.Counters.QuerySteps += pairTests
	res.Counters.Crossings += found
	res.IntersectionsI = found

	// Then resolve visibility (sequentially, as its authors would).
	seqRes, err := prep.Sequential()
	if err != nil {
		return nil, err
	}
	res.Pieces = seqRes.Pieces
	res.Crossings = seqRes.Crossings
	res.Counters.ClipSteps += seqRes.Counters.ClipSteps
	res.Counters.MergeSteps += seqRes.Counters.MergeSteps
	res.Counters.Spans += seqRes.Counters.Spans
	return res, nil
}
