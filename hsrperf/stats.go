package main

import (
	"bytes"
	"io"
	"math"
	"sort"
)

// minBeyond is the tail rule: a percentile is reported only when at least
// this many samples lie beyond it.
const minBeyond = 10

// tailLadder lists the percentiles tailPercentile considers, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that leaves
// at least minBeyond of n samples strictly beyond its nearest-rank
// position, or 0 when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-nearestRank(p/100, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// nearestRank is the 1-based nearest-rank position of quantile q in n
// sorted samples. The slack absorbs float error in q*n (0.95*200 must be
// rank 190, not 191).
func nearestRank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// it sorts in place; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[nearestRank(q, len(xs))-1]
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method) computes them, so steadiness figures match what a
// Python analysis of the same runs reports. xs needs at least two values
// and is sorted in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	m := len(xs) + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(xs)-1 {
			j = len(xs) - 1
		}
		delta := i*m - j*4
		out[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// volatileKeys are the response fields that legitimately differ between
// two answers to the same request: wall-clock timings and the per-query
// cost ledger. Everything else must repeat byte for byte.
var volatileKeys = [][]byte{[]byte(`"elapsed_ms":`), []byte(`"cost":`)}

// normalize writes body to w with every volatile field — its key and its
// value — removed, and every other byte kept in order.
func normalize(w io.Writer, body []byte) {
	var gone [2]bool // keys already known to be absent from the rest
	for {
		at, key := -1, -1
		for k, name := range volatileKeys {
			if gone[k] {
				continue
			}
			i := bytes.Index(body, name)
			if i < 0 {
				gone[k] = true
				continue
			}
			if at < 0 || i < at {
				at, key = i, k
			}
		}
		if at < 0 {
			w.Write(body)
			return
		}
		w.Write(body[:at])
		body = body[at+len(volatileKeys[key]):]
		body = body[valueEnd(body):]
	}
}

// valueEnd returns the length of the JSON value (with leading blanks) at
// the start of b: a balanced object or array, a string, or a scalar that
// runs to the next delimiter.
func valueEnd(b []byte) int {
	i := 0
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	if i == len(b) {
		return i
	}
	switch b[i] {
	case '{', '[':
		depth, inStr := 0, false
		for ; i < len(b); i++ {
			c := b[i]
			switch {
			case inStr && c == '\\':
				i++
			case c == '"':
				inStr = !inStr
			case inStr:
			case c == '{' || c == '[':
				depth++
			case c == '}' || c == ']':
				depth--
				if depth == 0 {
					return i + 1
				}
			}
		}
		return i
	case '"':
		for i++; i < len(b); i++ {
			switch b[i] {
			case '\\':
				i++
			case '"':
				return i + 1
			}
		}
		return i
	}
	for ; i < len(b); i++ {
		switch b[i] {
		case ',', '}', ']', ' ', '\n', '\t', '\r':
			return i
		}
	}
	return i
}
