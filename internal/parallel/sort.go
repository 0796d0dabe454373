package parallel

import "slices"

// SortFunc sorts xs by cmp (as slices.SortFunc) using parallel merge sort:
// the slice is split into one block per worker, blocks are sorted
// concurrently with slices.SortFunc, and then merged pairwise in parallel
// rounds. This is the EREW-style sorting primitive the depth-order step
// charges to the PRAM model (the paper's step 1 sorts edges by
// separator-tree position).
func SortFunc[T any](workers int, xs []T, cmp func(a, b T) int) {
	n := len(xs)
	if n < 2 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers == 1 || n < 4096 {
		slices.SortFunc(xs, cmp)
		return
	}
	// Block bounds.
	bounds := make([][2]int, workers)
	chunk, extra := n/workers, n%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + chunk
		if w < extra {
			hi++
		}
		bounds[w] = [2]int{lo, hi}
		lo = hi
	}
	ForBlocked(workers, workers, func(_, wLo, wHi int) {
		for w := wLo; w < wHi; w++ {
			slices.SortFunc(xs[bounds[w][0]:bounds[w][1]], cmp)
		}
	})
	// Pairwise merge rounds.
	buf := make([]T, n)
	src, dst := xs, buf
	for width := 1; width < workers; width *= 2 {
		pairs := make([][3]int, 0, workers/width+1)
		for i := 0; i < workers; i += 2 * width {
			loIdx := bounds[i][0]
			midW := i + width
			hiW := i + 2*width
			if midW >= workers {
				pairs = append(pairs, [3]int{loIdx, bounds[workers-1][1], bounds[workers-1][1]})
				continue
			}
			mid := bounds[midW][0]
			hi := bounds[workers-1][1]
			if hiW <= workers-1 {
				hi = bounds[hiW][0]
			}
			pairs = append(pairs, [3]int{loIdx, mid, hi})
		}
		ForDynamic(workers, len(pairs), 1, func(_, pi int) {
			p := pairs[pi]
			mergeInto(dst[p[0]:p[2]], src[p[0]:p[1]], src[p[1]:p[2]], cmp)
		})
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// mergeInto merges two sorted slices into out (len(out) == len(a)+len(b)).
func mergeInto[T any](out, a, b []T, cmp func(x, y T) int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmp(b[j], a[i]) < 0 {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	for i < len(a) {
		out[k] = a[i]
		i++
		k++
	}
	for j < len(b) {
		out[k] = b[j]
		j++
		k++
	}
}
