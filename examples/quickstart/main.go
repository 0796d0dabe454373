// Quickstart: generate a small fractal terrain, solve its hidden-surface
// removal, compare the work of the paper's parallel kernel with the
// default plan's, and print what the viewer sees.
package main

import (
	"fmt"
	"log"
	"os"

	terrainhsr "terrainhsr"
)

func main() {
	// A 48x48-cell fractal terrain (diamond-square relief), ~7k edges.
	tr, err := terrainhsr.Generate(terrainhsr.GenParams{
		Kind: "fractal", Rows: 48, Cols: 48, Seed: 42, Amplitude: 6,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Solve with the default algorithm. Parallel names the answer; its plan
	// runs the sequential-tree kernel, which emits the same bytes as the
	// paper's parallel kernel for less work.
	res, err := terrainhsr.Solve(tr, terrainhsr.Options{})
	if err != nil {
		log.Fatal(err)
	}

	st := res.Stats()
	fmt.Printf("terrain: %d vertices, %d triangles, %d edges\n",
		tr.NumVertices(), tr.NumTriangles(), tr.NumEdges())
	fmt.Printf("visible scene: %d pieces over %d edges, %d image vertices\n",
		st.Pieces, st.EdgesWithVisibility, st.Vertices)
	fmt.Printf("output size k = %d for input size n = %d (k/n = %.3f)\n",
		res.K(), res.N(), float64(res.K())/float64(res.N()))
	fmt.Printf("default plan (sequential-tree kernel): charged work = %d ops\n", res.Work())

	// The paper's kernel, named explicitly: more work, polylog PRAM depth.
	paper, err := terrainhsr.Solve(tr, terrainhsr.Options{Algorithm: terrainhsr.ParallelHulls})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paper's kernel (parallel-hulls): charged work = %d ops, PRAM depth = %d\n", paper.Work(), paper.Depth())
	fmt.Printf("Brent time on p=16 PRAM processors: %.0f ops\n", paper.TimeOnPRAM(16))

	// Cross-check against the sequential Reif-Sen baseline.
	seq, err := terrainhsr.Solve(tr, terrainhsr.Options{Algorithm: terrainhsr.Sequential})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential agrees: k=%d, visible length %.2f vs %.2f\n",
		seq.K(), seq.VisibleLength(), res.VisibleLength())

	fmt.Println("\nthe scene, as terminal art:")
	if err := terrainhsr.RenderASCII(os.Stdout, res, 100, 22); err != nil {
		log.Fatal(err)
	}
}
