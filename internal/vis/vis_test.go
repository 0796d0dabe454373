package vis

import (
	"math"
	"strings"
	"testing"

	"terrainhsr/internal/hsr"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/workload"
)

// mustPrepare prepares tr's depth order or fails the test.
func mustPrepare(t *testing.T, tr *terrain.Terrain) *hsr.Prepared {
	t.Helper()
	p, err := hsr.Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func solve(t *testing.T) (*hsr.Result, *hsr.Result) {
	t.Helper()
	tr, err := workload.Generate(workload.Params{Kind: workload.Fractal, Rows: 10, Cols: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prep := mustPrepare(t, tr)
	res, err := prep.Sequential()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := prep.ParallelOS(hsr.OSOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return res, res2
}

func TestStats(t *testing.T) {
	res, _ := solve(t)
	st := Stats(res)
	if st.Pieces != len(res.Pieces) {
		t.Fatalf("pieces %d vs %d", st.Pieces, len(res.Pieces))
	}
	if st.Vertices == 0 || st.Vertices > 2*st.Pieces {
		t.Fatalf("vertex count implausible: %d for %d pieces", st.Vertices, st.Pieces)
	}
	if st.Bounds[2] <= st.Bounds[0] || st.Bounds[3] <= st.Bounds[1] {
		t.Fatalf("degenerate bounds %+v", st.Bounds)
	}
	if st.EdgesWithVisibility == 0 {
		t.Fatal("no visible edges")
	}
}

func TestRenderSVGStructure(t *testing.T) {
	tr, err := workload.Generate(workload.Params{Kind: workload.Ridge, Rows: 8, Cols: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mustPrepare(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderSVG(&sb, tr, res, SVGOptions{Width: 500, ShowHidden: true}); err != nil {
		t.Fatal(err)
	}
	svg := sb.String()
	for _, want := range []string{"<svg", "</svg>", "<line", "stroke="} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	// With hidden wireframe there must be at least NumEdges lines.
	if strings.Count(svg, "<line") < tr.NumEdges() {
		t.Fatalf("too few lines: %d < %d", strings.Count(svg, "<line"), tr.NumEdges())
	}
}

func TestRenderSVGWithoutHidden(t *testing.T) {
	res, _ := solve(t)
	var sb strings.Builder
	if err := RenderSVG(&sb, nil, res, SVGOptions{}); err != nil {
		t.Fatal(err)
	}
	if strings.Count(sb.String(), "<line") != len(res.Pieces) {
		t.Fatal("line count should equal piece count without wireframe")
	}
}

func TestSilhouetteIsUpperBound(t *testing.T) {
	res, _ := solve(t)
	sil := Silhouette(res)
	if len(sil) == 0 {
		t.Fatal("empty silhouette")
	}
	if err := sil.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every visible piece lies on or below the silhouette.
	for _, p := range res.Pieces {
		if p.Span.X2 <= p.Span.X1 {
			continue
		}
		mid := (p.Span.X1 + p.Span.X2) / 2
		zp := (p.Span.Z1 + p.Span.Z2) / 2
		zs, cov := sil.Eval(mid, nil)
		if !cov {
			t.Fatalf("silhouette uncovered at %v inside visible piece", mid)
		}
		if zp > zs+1e-6 {
			t.Fatalf("piece above silhouette at %v: %v > %v", mid, zp, zs)
		}
	}
}

func TestSilhouetteAgreesAcrossAlgorithms(t *testing.T) {
	a, b := solve(t)
	sa, sb := Silhouette(a), Silhouette(b)
	loA, hiA, _ := sa.XRange()
	for x := loA; x < hiA; x += (hiA - loA) / 200 {
		za, ca := sa.Eval(x, nil)
		zb, cb := sb.Eval(x, nil)
		if ca != cb {
			continue // breakpoint slivers
		}
		if ca && math.Abs(za-zb) > 1e-6 {
			t.Fatalf("silhouettes differ at %v: %v vs %v", x, za, zb)
		}
	}
}

func TestEdgeVisibilityFractions(t *testing.T) {
	tr, err := workload.Generate(workload.Params{Kind: workload.TiltedUp, Rows: 6, Cols: 6, Seed: 2, Slope: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mustPrepare(t, tr).Sequential()
	if err != nil {
		t.Fatal(err)
	}
	fr := EdgeVisibilityFractions(tr, res)
	if len(fr) != tr.NumEdges() {
		t.Fatalf("fractions for %d of %d edges", len(fr), tr.NumEdges())
	}
	full := 0
	for _, f := range fr {
		if f.Fraction < 0 || f.Fraction > 1 {
			t.Fatalf("fraction out of range: %+v", f)
		}
		if f.Fraction > 0.99 {
			full++
		}
	}
	// A terrain tilted toward the sky shows most edges fully.
	if full < tr.NumEdges()/2 {
		t.Fatalf("only %d of %d edges fully visible on tilted-up terrain", full, tr.NumEdges())
	}
}

func TestRenderASCII(t *testing.T) {
	res, _ := solve(t)
	var sb strings.Builder
	if err := RenderASCII(&sb, res, 60, 16); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 16 {
		t.Fatalf("expected 16 rows, got %d", len(lines))
	}
	nonBlank := 0
	for _, ln := range lines {
		if len(ln) != 60 {
			t.Fatalf("row width %d, want 60", len(ln))
		}
		if strings.TrimSpace(ln) != "" {
			nonBlank++
		}
	}
	if nonBlank < 3 {
		t.Fatalf("scene nearly empty: %d non-blank rows", nonBlank)
	}
	// Degenerate sizes clamp rather than fail.
	var sb2 strings.Builder
	if err := RenderASCII(&sb2, res, 1, 1); err != nil {
		t.Fatal(err)
	}
}
