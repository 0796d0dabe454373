package hsr

import (
	"terrainhsr/internal/pct"
	"terrainhsr/internal/pram"
)

// ParallelSimple runs the copying parallelization of Reif-Sen: phase 1
// builds all intermediate profiles of the PCT bottom-up, phase 2 pushes
// prefix profiles top-down with full envelope merges at every node.
//
// Its parallel time is polylogarithmic (given enough processors) but its
// work is Theta(n*k) in the worst case because prefix profiles are copied
// at each of the log n layers — the precise inefficiency the paper's
// persistent, intersection-driven phase 2 removes. It doubles as the A1
// "no persistence" ablation.
func (prep *Prepared) ParallelSimple(workers int) (*Result, error) {
	res := &Result{N: prep.t.NumEdges(), Acct: &pram.Accounting{}}

	tree := pct.New(prep.segs, prep.ord.EdgeOrder)
	res.Phase1 = tree.BuildPhase1(workers, res.Acct)
	for _, st := range res.Phase1 {
		res.Counters.MergeSteps += st.MergeSteps
	}

	leaves, p2stats := tree.Phase2Simple(workers, res.Acct)
	res.Phase2 = p2stats
	for _, st := range p2stats {
		res.Counters.MergeSteps += st.MergeSteps
		res.Counters.Crossings += st.Crossings
		res.Crossings += st.Crossings
	}
	for _, lv := range leaves {
		res.Counters.Spans += int64(len(lv.Spans))
		for _, sp := range lv.Spans {
			res.Pieces = append(res.Pieces, VisiblePiece{Edge: prep.ord.EdgeOrder[lv.Pos], Span: sp})
		}
	}
	sortPieces(res.Pieces)
	return res, nil
}
