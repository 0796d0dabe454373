package vis

import (
	"fmt"
	"io"
	"math"

	"terrainhsr/internal/envelope"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/terrain"
)

// SceneStats summarizes the displayed image as a planar graph.
type SceneStats struct {
	// Pieces is the number of visible edge portions (image edges).
	Pieces int
	// Vertices is the number of distinct piece endpoints.
	Vertices int
	// VisibleLength is the total image-plane length.
	VisibleLength float64
	// EdgesWithVisibility counts input edges with at least one visible
	// portion.
	EdgesWithVisibility int
	// Bounds is the image-plane bounding box (x1, z1, x2, z2).
	Bounds [4]float64
}

// Stats computes scene statistics from a result.
func Stats(res *hsr.Result) SceneStats {
	st := SceneStats{Pieces: len(res.Pieces), VisibleLength: res.VisibleLength()}
	seenEdge := make(map[int32]bool)
	type vkey struct{ x, z float64 }
	verts := make(map[vkey]bool)
	quant := func(v float64) float64 { return math.Round(v*1e7) / 1e7 }
	first := true
	for _, p := range res.Pieces {
		seenEdge[p.Edge] = true
		verts[vkey{quant(p.Span.X1), quant(p.Span.Z1)}] = true
		verts[vkey{quant(p.Span.X2), quant(p.Span.Z2)}] = true
		if first {
			st.Bounds = [4]float64{p.Span.X1, p.Span.Z1, p.Span.X2, p.Span.Z2}
			first = false
		}
		st.Bounds[0] = math.Min(st.Bounds[0], math.Min(p.Span.X1, p.Span.X2))
		st.Bounds[1] = math.Min(st.Bounds[1], math.Min(p.Span.Z1, p.Span.Z2))
		st.Bounds[2] = math.Max(st.Bounds[2], math.Max(p.Span.X1, p.Span.X2))
		st.Bounds[3] = math.Max(st.Bounds[3], math.Max(p.Span.Z1, p.Span.Z2))
	}
	st.Vertices = len(verts)
	st.EdgesWithVisibility = len(seenEdge)
	return st
}

// SVGOptions controls rendering.
type SVGOptions struct {
	// Width is the pixel width of the output (height follows the aspect
	// ratio). Default 800.
	Width int
	// ShowHidden draws the full wireframe faintly under the visible scene.
	ShowHidden bool
	// StrokeVisible and StrokeHidden are CSS colors.
	StrokeVisible, StrokeHidden string
	// Title is embedded in the SVG.
	Title string
}

func (o SVGOptions) withDefaults() SVGOptions {
	if o.Width <= 0 {
		o.Width = 800
	}
	if o.StrokeVisible == "" {
		o.StrokeVisible = "#1a4d2e"
	}
	if o.StrokeHidden == "" {
		o.StrokeHidden = "#cccccc"
	}
	if o.Title == "" {
		o.Title = "terrainhsr visible scene"
	}
	return o
}

// RenderSVG writes the visible scene as an SVG drawing. The terrain may be
// nil when ShowHidden is false.
func RenderSVG(w io.Writer, t *terrain.Terrain, res *hsr.Result, opt SVGOptions) error {
	opt = opt.withDefaults()
	st := Stats(res)
	x1, z1, x2, z2 := st.Bounds[0], st.Bounds[1], st.Bounds[2], st.Bounds[3]
	if opt.ShowHidden && t != nil {
		for e := 0; e < t.NumEdges(); e++ {
			s := t.EdgeImageSeg(e)
			x1 = math.Min(x1, s.A.X)
			x2 = math.Max(x2, s.B.X)
			z1 = math.Min(z1, math.Min(s.A.Z, s.B.Z))
			z2 = math.Max(z2, math.Max(s.A.Z, s.B.Z))
		}
	}
	if x2-x1 < 1e-9 {
		x2 = x1 + 1
	}
	if z2-z1 < 1e-9 {
		z2 = z1 + 1
	}
	pad := 0.03 * math.Max(x2-x1, z2-z1)
	x1, x2, z1, z2 = x1-pad, x2+pad, z1-pad, z2+pad
	width := float64(opt.Width)
	scale := width / (x2 - x1)
	height := (z2 - z1) * scale
	// SVG y grows downward; flip z.
	px := func(x float64) float64 { return (x - x1) * scale }
	pz := func(z float64) float64 { return height - (z-z1)*scale }

	if _, err := fmt.Fprintf(w,
		"<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.2f %.2f\">\n<title>%s</title>\n<rect width=\"100%%\" height=\"100%%\" fill=\"white\"/>\n",
		width, height, width, height, opt.Title); err != nil {
		return err
	}
	sw := math.Max(1, width/1200)
	if opt.ShowHidden && t != nil {
		fmt.Fprintf(w, "<g stroke=\"%s\" stroke-width=\"%.2f\" fill=\"none\" stroke-linecap=\"round\">\n", opt.StrokeHidden, sw*0.6)
		for e := 0; e < t.NumEdges(); e++ {
			s := t.EdgeImageSeg(e)
			fmt.Fprintf(w, "<line x1=\"%.2f\" y1=\"%.2f\" x2=\"%.2f\" y2=\"%.2f\"/>\n",
				px(s.A.X), pz(s.A.Z), px(s.B.X), pz(s.B.Z))
		}
		fmt.Fprintln(w, "</g>")
	}
	fmt.Fprintf(w, "<g stroke=\"%s\" stroke-width=\"%.2f\" fill=\"none\" stroke-linecap=\"round\">\n", opt.StrokeVisible, sw*1.4)
	for _, p := range res.Pieces {
		fmt.Fprintf(w, "<line x1=\"%.2f\" y1=\"%.2f\" x2=\"%.2f\" y2=\"%.2f\"/>\n",
			px(p.Span.X1), pz(p.Span.Z1), px(p.Span.X2), pz(p.Span.Z2))
	}
	fmt.Fprintln(w, "</g>")
	_, err := fmt.Fprintln(w, "</svg>")
	return err
}

// Silhouette extracts the upper silhouette (the final profile) of the
// visible scene: the pointwise maximum of all visible pieces, returned as
// an envelope profile. This is the terrain's skyline as seen by the viewer.
func Silhouette(res *hsr.Result) envelope.Profile {
	segs := make([]envelope.Profile, 0, len(res.Pieces))
	for i, p := range res.Pieces {
		if p.Span.X2-p.Span.X1 <= 0 {
			continue
		}
		segs = append(segs, envelope.Profile{{
			X1: p.Span.X1, Z1: p.Span.Z1, X2: p.Span.X2, Z2: p.Span.Z2, Edge: int32(i),
		}})
	}
	// Balanced merge for near-linear cost.
	for len(segs) > 1 {
		var next []envelope.Profile
		for i := 0; i < len(segs); i += 2 {
			if i+1 < len(segs) {
				next = append(next, envelope.Edges(nil).Merge(segs[i], segs[i+1]))
			} else {
				next = append(next, segs[i])
			}
		}
		segs = next
	}
	if len(segs) == 0 {
		return nil
	}
	return segs[0]
}
