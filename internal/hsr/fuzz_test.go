package hsr

import (
	"math/rand"
	"testing"

	"terrainhsr/internal/workload"
)

// FuzzSequentialTreeOracle checks the serving kernel on small random
// terrains from every generator: a sequential-tree solve on an emptied pool
// and one after the pool has served both kernels in both hull modes must
// give the same bytes, those bytes must equal ParallelOS's in the same
// pruning mode, and the pieces must pass the first-principles ray oracle on
// 60 sampled columns.
func FuzzSequentialTreeOracle(f *testing.F) {
	for i := range workload.Kinds {
		f.Add(uint8(i), uint8(5+i), uint8(12-i), int64(i+1), i%2 == 1)
	}
	f.Add(uint8(0), uint8(0), uint8(0), int64(0), false)
	f.Add(uint8(7), uint8(10), uint8(10), int64(-3), true)
	f.Fuzz(func(t *testing.T, kind, rows, cols uint8, seed int64, hulls bool) {
		p := workload.Params{
			Kind: workload.Kinds[int(kind)%len(workload.Kinds)],
			Rows: 2 + int(rows)%11,
			Cols: 2 + int(cols)%11,
			Seed: seed,
		}
		tr, err := workload.Generate(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		prep, err := Prepare(tr)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		emptyPool()
		fresh, err := prep.SequentialTree(hulls)
		if err != nil {
			t.Fatalf("%+v hulls=%v: %v", p, hulls, err)
		}
		servePool(t, prep)
		pooled, err := prep.SequentialTree(hulls)
		if err != nil {
			t.Fatalf("%+v hulls=%v: pooled: %v", p, hulls, err)
		}
		fp := piecesFingerprint(fresh.Pieces)
		if got := piecesFingerprint(pooled.Pieces); got != fp {
			t.Fatalf("%+v hulls=%v: pooled solve fingerprint %#x, fresh %#x", p, hulls, got, fp)
		}
		par, err := prep.ParallelOS(OSOptions{Workers: 2, WithHulls: hulls})
		if err != nil {
			t.Fatalf("%+v hulls=%v: ParallelOS: %v", p, hulls, err)
		}
		if got := piecesFingerprint(par.Pieces); got != fp {
			t.Fatalf("%+v hulls=%v: ParallelOS fingerprint %#x, sequential-tree %#x", p, hulls, got, fp)
		}
		ys := sampleColumns(rand.New(rand.NewSource(seed)), tr, p.Cols, 60)
		if err := OracleCheck(tr, fresh, ys, 1e-6); err != nil {
			t.Fatalf("%+v hulls=%v: %v", p, hulls, err)
		}
	})
}
