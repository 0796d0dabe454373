package parallel

import (
	"cmp"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSortFuncSmall(t *testing.T) {
	xs := []int{5, 2, 9, 1, 5, 6}
	SortFunc(4, xs, cmp.Compare[int])
	if !sort.IntsAreSorted(xs) {
		t.Fatalf("not sorted: %v", xs)
	}
}

func TestSortFuncEmptyAndSingle(t *testing.T) {
	SortFunc(4, []int{}, cmp.Compare[int])
	one := []int{7}
	SortFunc(4, one, cmp.Compare[int])
	if one[0] != 7 {
		t.Fatal("single element disturbed")
	}
}

func TestSortFuncLargeParallel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, workers := range []int{2, 3, 8, 16} {
		n := 50000 + r.Intn(10000)
		xs := make([]int, n)
		for i := range xs {
			xs[i] = r.Intn(1 << 20)
		}
		want := append([]int(nil), xs...)
		sort.Ints(want)
		SortFunc(workers, xs, cmp.Compare[int])
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("workers=%d: mismatch at %d: %d vs %d", workers, i, xs[i], want[i])
			}
		}
	}
}

func TestSortFuncStabilityOfOrderNotRequired(t *testing.T) {
	// Values equal under less may appear in any order, but multiset must
	// be preserved.
	f := func(raw []int16, w uint8) bool {
		xs := make([]int, len(raw))
		counts := map[int]int{}
		for i, v := range raw {
			xs[i] = int(v) % 8
			counts[xs[i]]++
		}
		SortFunc(1+int(w)%12, xs, cmp.Compare[int])
		if !sort.IntsAreSorted(xs) {
			return false
		}
		for _, v := range xs {
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSortFunc(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	xs := make([]int64, 1<<18)
	for i := range xs {
		xs[i] = r.Int63()
	}
	work := make([]int64, len(xs))
	for _, workers := range []int{1, 8} {
		name := "workers=1"
		if workers == 8 {
			name = "workers=8"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, xs)
				SortFunc(workers, work, cmp.Compare[int64])
			}
		})
	}
}
