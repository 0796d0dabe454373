// Command hsrview computes the visible scene of a terrain and renders it to
// SVG. The terrain comes either from a terraingen JSON file (-in) or from a
// generator (-kind/-rows/-cols/-seed).
//
// Usage:
//
//	hsrview -kind ridge -rows 64 -cols 64 -algo parallel -o scene.svg
//	terraingen -kind fractal -o t.json && hsrview -in t.json -o scene.svg
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"terrainhsr/internal/engine"
	"terrainhsr/internal/hsr"
	"terrainhsr/internal/terrain"
	"terrainhsr/internal/vis"
	"terrainhsr/internal/workload"
)

func main() {
	in := flag.String("in", "", "terrain JSON file (from terraingen); empty = generate")
	kind := flag.String("kind", "fractal", "terrain family when generating")
	rows := flag.Int("rows", 48, "grid rows when generating")
	cols := flag.Int("cols", 48, "grid cols when generating")
	seed := flag.Int64("seed", 1, "seed when generating")
	algo := flag.String("algo", engine.AlgoParallel, strings.Join(engine.Algorithms(), " | "))
	workers := flag.Int("workers", 0, "worker goroutines (0 = all CPUs)")
	width := flag.Int("width", 1000, "SVG width in pixels")
	hidden := flag.Bool("hidden", true, "draw the occluded wireframe faintly")
	out := flag.String("o", "scene.svg", "output SVG path (- = stdout)")
	flag.Parse()

	var t *terrain.Terrain
	var err error
	if *in != "" {
		t, err = loadTerrain(*in)
	} else {
		t, err = workload.Generate(workload.Params{
			Kind: workload.Kind(*kind), Rows: *rows, Cols: *cols, Seed: *seed,
		})
	}
	if err != nil {
		log.Fatalf("hsrview: %v", err)
	}

	prep, err := hsr.Prepare(t)
	if err != nil {
		log.Fatalf("hsrview: prepare: %v", err)
	}
	res, err := engine.Dispatch(prep, *algo, *workers)
	if err != nil {
		log.Fatalf("hsrview: solve: %v", err)
	}
	st := vis.Stats(res)
	fmt.Fprintf(os.Stderr, "hsrview: n=%d edges, k=%d pieces, %d image vertices, work=%d\n",
		res.N, st.Pieces, st.Vertices, res.Work())

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("hsrview: %v", err)
		}
		defer f.Close()
		w = f
	}
	if err := vis.RenderSVG(w, t, res, vis.SVGOptions{
		Width: *width, ShowHidden: *hidden, Title: "terrainhsr visible scene",
	}); err != nil {
		log.Fatalf("hsrview: render: %v", err)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "hsrview: wrote %s\n", *out)
	}
}

func loadTerrain(path string) (*terrain.Terrain, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".obj") {
		return terrain.ReadOBJ(f)
	}
	return terrain.ReadJSON(f)
}
