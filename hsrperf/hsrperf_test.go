package main

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},   // p50 leaves 9 beyond
		{20, 50},  // p50 leaves exactly 10
		{99, 75},  // p90 leaves 9
		{100, 90}, // p90 leaves exactly 10
		{199, 90}, // p95 leaves 9
		{200, 95},
		{1000, 99},
		{10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// The rule itself: the chosen percentile leaves at least minBeyond
	// samples beyond it, and the next rung up would not.
	for n := 1; n <= 2000; n++ {
		p := tailPercentile(n)
		if p == 0 {
			continue
		}
		if beyond := n - nearestRank(p/100, n); beyond < minBeyond {
			t.Fatalf("n=%d: p%v leaves %d samples beyond", n, p, beyond)
		}
		for _, higher := range tailLadder {
			if higher > p && n-nearestRank(higher/100, n) >= minBeyond {
				t.Fatalf("n=%d: p%v qualifies but p%v was chosen", n, higher, p)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

// requestLists prepares a workload's inputs and returns its request list.
func requestLists(t *testing.T, w workload, seed int64) []string {
	t.Helper()
	in, err := w.prepare(seed, t.TempDir(), 1)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if len(in.requests) == 0 {
		t.Fatalf("%s seed %d: no requests", w.name, seed)
	}
	return in.requests
}

func TestSeededRequestLists(t *testing.T) {
	for _, w := range workloads {
		a, b := requestLists(t, w, 7), requestLists(t, w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different request lists", w.name)
		}
		if c := requestLists(t, w, 8); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", w.name)
		}
	}
}

func normalized(body string) string {
	var b bytes.Buffer
	normalize(&b, []byte(body))
	return b.String()
}

const viewshedBody = `{
  "terrain": "massive",
  "eye": [-4, 8, 20],
  "quantized_eye": [-4, 8, 20],
  "cache": "hit",
  "n": 12,
  "k": 2,
  "elapsed_ms": 4.213,
  "cost": {
    "plan_us": 0,
    "solve_us": 0,
    "cache_us": 5,
    "n": 12,
    "k": 2
  },
  "pieces": [
    {"Edge":1,"X1":-1.5,"Z1":0.25,"X2":-1.25,"Z2":0.5},
    {"Edge":3,"X1":0,"Z1":0.125,"X2":1,"Z2":0.75}
  ]
}
`

func TestNormalizeDropsOnlyVolatileFields(t *testing.T) {
	base := normalized(viewshedBody)
	if strings.Contains(base, "elapsed_ms") || strings.Contains(base, "cost") || strings.Contains(base, "cache_us") {
		t.Fatalf("volatile field survived normalization:\n%s", base)
	}
	for _, keep := range []string{`"terrain": "massive"`, `"cache": "hit"`, `"k": 2`, `{"Edge":3,"X1":0,"Z1":0.125,"X2":1,"Z2":0.75}`} {
		if !strings.Contains(base, keep) {
			t.Fatalf("normalization dropped %s:\n%s", keep, base)
		}
	}
	// Changing only volatile values leaves the normalized body unchanged.
	same := strings.NewReplacer(`"elapsed_ms": 4.213`, `"elapsed_ms": 97.5`, `"cache_us": 5`, `"cache_us": 1234`).Replace(viewshedBody)
	if normalized(same) != base {
		t.Fatal("a timing-only change altered the normalized body")
	}
	// Changing any other byte changes it.
	for _, edit := range [][2]string{
		{`"cache": "hit"`, `"cache": "miss"`},
		{`"Z2":0.75`, `"Z2":0.7500000000000001`},
		{`"k": 2,`, `"k": 3,`},
		{`"eye": [-4, 8, 20]`, `"eye": [-4, 8, 21]`},
	} {
		if normalized(strings.Replace(viewshedBody, edit[0], edit[1], 1)) == base {
			t.Errorf("changing %s to %s did not change the normalized body", edit[0], edit[1])
		}
	}
	// Flyover frames end with elapsed_ms; every occurrence goes.
	frames := `{"frames": [{"pieces": [], "k": 0, "elapsed_ms": 1.5}, {"pieces": [], "k": 0, "elapsed_ms": 2}]}`
	if got, want := normalized(frames), `{"frames": [{"pieces": [], "k": 0, }, {"pieces": [], "k": 0, }]}`; got != want {
		t.Fatalf("normalized frames = %s, want %s", got, want)
	}
}

// Every client must digest alike: the traced run checks its responses with
// a second client against references the first one made.
func TestClientsDigestAlike(t *testing.T) {
	a, b := newClient(nil), newClient(nil)
	a.rec.body.WriteString(viewshedBody)
	b.rec.body.WriteString(strings.Replace(viewshedBody, `"elapsed_ms": 4.213`, `"elapsed_ms": 9`, 1))
	if a.digest() != b.digest() {
		t.Fatal("two clients digest the same normalized body differently")
	}
}

func TestFirstElapsedMS(t *testing.T) {
	ms, ok := firstElapsedMS([]byte(viewshedBody))
	if !ok || math.Abs(ms-4.213) > 1e-12 {
		t.Fatalf("firstElapsedMS = %v, %v", ms, ok)
	}
}
