package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	terrainhsr "terrainhsr"
	"terrainhsr/internal/engine"
)

// workload is one benchmark scenario. prepare turns a seed into the
// workload's inputs — terrains, stores on disk, the request list and the
// reference solver — none of which is timed; inputs.setup is the timed
// set-up that builds a serving stack over them.
type workload struct {
	name string
	// workers is the server's per-query worker budget (ServerOptions.Workers).
	workers func() int
	// setups is how many times a run builds its server; setup_s is their
	// median. Cheap set-ups repeat more, so the median settles.
	setups  int
	prepare func(seed int64, dir string, workers int) (*inputs, error)
}

// inputs is a prepared workload.
type inputs struct {
	// setup constructs the server, registers the terrain and fills any
	// cache: everything a replica does before it can answer (setup_s).
	setup func() (*terrainhsr.Server, error)
	// requests is the seeded request list (URL path and query), replayed
	// in order by every pass. prime is sent once, unchecked and untimed,
	// before the warm-up pass, so the first request of every pass sees the
	// same server-side history.
	requests []string
	prime    []string
	// reference checks request i's response body against an independent
	// library solve; it runs on the untimed warm-up pass only.
	reference func(i int, body []byte) error
	// terrain and eyes drive the direct kernel and transform timings of the
	// traced run: terrain is the in-memory terrain the workload's queries
	// solve, eyes its distinct viewpoints.
	terrain *terrainhsr.Terrain
	eyes    []terrainhsr.Point
	// levelBytes is the on-disk size of the paged store level (tile files),
	// the denominator of store.read_fraction; 0 when nothing is paged.
	levelBytes int64
}

// workloads are the benchmark's scenarios; README.md says why each was chosen.
var workloads = []workload{
	{
		name:    "viewshed-cold",
		workers: numCPU,
		setups:  31,
		prepare: prepareCold,
	},
	{
		name:    "viewshed-warm",
		workers: one,
		setups:  7,
		prepare: prepareWarm,
	},
	{
		name:    "flyover-session",
		workers: one,
		setups:  31,
		prepare: prepareFlyover,
	},
}

func one() int { return 1 }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Sizes, fixed per workload so that every run holds at least minTimed
// timed requests (see README.md for how they were chosen).
//
// The terrains are part of a workload's definition, like its size: they
// are generated from terrainSeed, not from the run's seed. The run's seed
// draws the request sequence — eye jitter, request order, the flyover
// loop's phase and dwell pattern — from a population that is the same for
// every seed, so runs with different seeds do the same amount of work and
// their figures are comparable.
const (
	terrainSeed = 1

	coldSamples     = 97    // DEM samples per axis: a 96x96-cell finest level
	coldTileSamples = 16    // store tile-file extent per axis
	coldBudget      = 24000 // bytes: below the finest level's 75 KB of heights

	warmCells    = 40 // massive terrain, cells per axis
	warmRequests = 240
	warmZipfS    = 1.2

	flyCells     = 48 // massive terrain, cells per axis
	flyTileCells = 1024
	flyWaypoints = 12 // legs per pass (a closed loop)

	// jitter is the largest seeded offset added to each eye coordinate:
	// enough to make every seed's eyes distinct, far too small to change
	// how much of the terrain they see.
	jitter = 1.0 / 64
)

// jittered offsets each coordinate of p by a seeded amount in
// [-jitter, jitter), rounded to a dyadic fraction so the URL form is short
// and exact.
func jittered(r *rand.Rand, p terrainhsr.Point) terrainhsr.Point {
	j := func(v float64) float64 { return v + math.Round((2*r.Float64()-1)*jitter*1024)/1024 }
	return terrainhsr.Point{X: j(p.X), Y: j(p.Y), Z: j(p.Z)}
}

// observerGrid lays eyes on a rows x cols grid in front of the terrain:
// x steps back from x0 by dx per row, y runs across from y0 by dy.
func observerGrid(rows, cols int, x0, dx, y0, dy, z float64) []terrainhsr.Point {
	var eyes []terrainhsr.Point
	for a := 0; a < rows; a++ {
		for b := 0; b < cols; b++ {
			eyes = append(eyes, terrainhsr.Point{X: x0 - dx*float64(a), Y: y0 + dy*float64(b), Z: z})
		}
	}
	return eyes
}

// eyeParam formats an eye as the service's x,y,z parameter; 'g' with -1
// precision round-trips the float exactly.
func eyeParam(p terrainhsr.Point) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return f(p.X) + "," + f(p.Y) + "," + f(p.Z)
}

func viewshedURL(id string, eye terrainhsr.Point, nocache bool) string {
	v := url.Values{"terrain": {id}, "eye": {eyeParam(eye)}}
	if nocache {
		v.Set("nocache", "1")
	}
	return "/viewshed?" + v.Encode()
}

func flyoverURL(id string, eyes []terrainhsr.Point) string {
	v := url.Values{"terrain": {id}}
	for _, e := range eyes {
		v.Add("eye", eyeParam(e))
	}
	return "/flyover?" + v.Encode()
}

// ridgeDEM writes an ESRI ASCII grid: gentle relief drawn from r, rising
// slowly away from the viewer, cut by a tall wall a sixth of the way in.
// The wall has three notches, so some far tiles stay visible while most
// are culled.
func ridgeDEM(path string, n int, r *rand.Rand) error {
	wall := n / 6
	notch := make([]bool, n)
	for c := 0; c < 3; c++ {
		at := r.Intn(n - 12)
		for j := at; j < at+8; j++ {
			notch[j] = true
		}
	}
	f1, f2, ph := 0.15+0.1*r.Float64(), 0.2+0.1*r.Float64(), r.Float64()*math.Pi
	var b strings.Builder
	fmt.Fprintf(&b, "ncols %d\nnrows %d\ncellsize 1\nNODATA_value -9999\n", n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			h := 1.5*math.Sin(f1*float64(i)+ph)*math.Cos(f2*float64(j)) + 0.02*float64(i) + 0.3*r.Float64()
			if i == wall {
				h = 14
				if notch[j] {
					h = 4
				}
			}
			b.WriteString(strconv.FormatFloat(h, 'f', 3, 64))
		}
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

func prepareCold(seed int64, dir string, workers int) (*inputs, error) {
	r := rand.New(rand.NewSource(seed))
	demPath := filepath.Join(dir, "ridge.asc")
	if err := ridgeDEM(demPath, coldSamples, rand.New(rand.NewSource(terrainSeed))); err != nil {
		return nil, err
	}
	storeDir := filepath.Join(dir, "ridge.store")
	if err := os.RemoveAll(storeDir); err != nil {
		return nil, err
	}
	if _, err := terrainhsr.BuildStore(demPath, storeDir, terrainhsr.StoreOptions{TileSamples: coldTileSamples}); err != nil {
		return nil, err
	}
	levelBytes, err := dirBytes(filepath.Join(storeDir, "level0"))
	if err != nil {
		return nil, err
	}
	// The in-core reference: the same DEM ingested directly, solved by the
	// tiled pipeline the paged one is pinned byte-identical to, over the
	// band partition the residency budget gives the paged solve.
	tr, err := terrainhsr.TerrainFromDEM(demPath)
	if err != nil {
		return nil, err
	}
	spec := engine.OutOfCoreSpec(coldSamples-1, coldSamples-1, coldBudget)
	ref, err := terrainhsr.NewTiledSolver(tr, terrainhsr.TileOptions{TileRows: spec.TileRows, TileCols: spec.TileCols})
	if err != nil {
		return nil, err
	}
	// Every pass visits the whole 2x15 observer grid, each eye jittered and
	// the order shuffled by the seed.
	eyes := observerGrid(2, 15, -3, 4, 4, 6, 2)
	r.Shuffle(len(eyes), func(a, b int) { eyes[a], eyes[b] = eyes[b], eyes[a] })
	for i := range eyes {
		eyes[i] = jittered(r, eyes[i])
	}
	reqs := make([]string, len(eyes))
	for i, e := range eyes {
		reqs[i] = viewshedURL("ridge", e, true)
	}
	return &inputs{
		setup: func() (*terrainhsr.Server, error) {
			srv := terrainhsr.NewServer(terrainhsr.ServerOptions{Workers: workers, ResidencyBudget: coldBudget})
			return srv, srv.RegisterStore("ridge", storeDir)
		},
		requests: reqs,
		reference: func(i int, body []byte) error {
			want, err := streamPieces(func(sink terrainhsr.PieceSink) error {
				_, err := ref.SolveStreamFrom(eyes[i], terrainhsr.BatchOptions{Options: terrainhsr.Options{Workers: workers}}, sink)
				return err
			})
			if err != nil {
				return err
			}
			return checkViewshed(body, want)
		},
		terrain:    tr,
		eyes:       eyes,
		levelBytes: levelBytes,
	}, nil
}

func prepareWarm(seed int64, _ string, workers int) (*inputs, error) {
	r := rand.New(rand.NewSource(seed))
	tr, err := terrainhsr.Generate(terrainhsr.GenParams{Kind: "massive", Rows: warmCells, Cols: warmCells, Seed: terrainSeed})
	if err != nil {
		return nil, err
	}
	eyes := observerGrid(2, 8, -4, 6, 4, 4.5, 14)
	for i := range eyes {
		eyes[i] = jittered(r, eyes[i])
	}
	// The timed mix is Zipf over the cached eyes — eye i drawn in
	// proportion to 1/(i+1)^s, so a few eyes dominate, as in real viewer
	// traffic — with each eye's share exact rather than sampled, and the
	// seed shuffling the order. Every timed query is a hit.
	pick := zipfMix(len(eyes), warmRequests, warmZipfS)
	r.Shuffle(len(pick), func(a, b int) { pick[a], pick[b] = pick[b], pick[a] })
	reqs := make([]string, len(pick))
	for i, e := range pick {
		reqs[i] = viewshedURL("massive", eyes[e], false)
	}
	solved := map[int][][]byte{} // reference pieces by eye, solved once
	return &inputs{
		setup: func() (*terrainhsr.Server, error) {
			srv := terrainhsr.NewServer(terrainhsr.ServerOptions{Workers: workers})
			if err := srv.Register("massive", tr); err != nil {
				return nil, err
			}
			for _, e := range eyes {
				if _, err := srv.Query(terrainhsr.Query{TerrainID: "massive", Eye: e}); err != nil {
					return nil, err
				}
			}
			return srv, nil
		},
		requests: reqs,
		reference: func(i int, body []byte) error {
			want, ok := solved[pick[i]]
			if !ok {
				var err error
				if want, err = solvePieces(tr, eyes[pick[i]], workers); err != nil {
					return err
				}
				solved[pick[i]] = want
			}
			return checkViewshed(body, want)
		},
		terrain: tr,
		eyes:    eyes,
	}, nil
}

func prepareFlyover(seed int64, _ string, workers int) (*inputs, error) {
	r := rand.New(rand.NewSource(seed))
	tr, err := terrainhsr.Generate(terrainhsr.GenParams{Kind: "massive", Rows: flyCells, Cols: flyCells, Seed: terrainSeed})
	if err != nil {
		return nil, err
	}
	ref, err := terrainhsr.NewTiledSolver(tr, terrainhsr.TileOptions{})
	if err != nil {
		return nil, err
	}
	// A closed loop of low waypoints sweeping across the terrain's front,
	// so consecutive frames look over mostly the same tiles. The seed turns
	// the loop's starting phase and jitters each waypoint.
	ph := r.Float64() * 2 * math.Pi
	wps := make([]terrainhsr.Point, flyWaypoints)
	for i := range wps {
		a := ph + 2*math.Pi*float64(i)/flyWaypoints
		wps[i] = jittered(r, terrainhsr.Point{
			X: math.Round((-8+3*math.Sin(a))*64) / 64,
			Y: math.Round((flyCells/2+0.35*flyCells*math.Cos(a))*64) / 64,
			Z: 6.5,
		})
	}
	// Leg i flies w_i -> midpoint -> w_(i+1), then dwells at w_(i+1) for
	// 0, 1 or 2 frames: each count on a third of the legs, assigned by the
	// seed. Its first frame repeats the previous leg's last eye, so it
	// replays.
	dwell := make([]int, flyWaypoints)
	for i := range dwell {
		dwell[i] = i % 3
	}
	r.Shuffle(len(dwell), func(a, b int) { dwell[a], dwell[b] = dwell[b], dwell[a] })
	legs := make([][]terrainhsr.Point, flyWaypoints)
	seen := map[terrainhsr.Point]bool{}
	var eyes []terrainhsr.Point
	for i := range legs {
		a, b := wps[i], wps[(i+1)%len(wps)]
		mid := terrainhsr.Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2, Z: (a.Z + b.Z) / 2}
		leg := []terrainhsr.Point{a, mid, b}
		for d := dwell[i]; d > 0; d-- {
			leg = append(leg, b)
		}
		legs[i] = leg
		for _, e := range leg {
			if !seen[e] {
				seen[e] = true
				eyes = append(eyes, e)
			}
		}
	}
	reqs := make([]string, len(legs))
	for i, leg := range legs {
		reqs[i] = flyoverURL("massive", leg)
	}
	return &inputs{
		setup: func() (*terrainhsr.Server, error) {
			srv := terrainhsr.NewServer(terrainhsr.ServerOptions{Workers: workers, TileCells: flyTileCells})
			return srv, srv.Register("massive", tr)
		},
		requests: reqs,
		prime:    reqs[len(reqs)-1:],
		reference: func(i int, body []byte) error {
			want := make([][][]byte, len(legs[i]))
			for f, e := range legs[i] {
				var err error
				want[f], err = streamPieces(func(sink terrainhsr.PieceSink) error {
					_, err := ref.SolveStreamFrom(e, terrainhsr.BatchOptions{Options: terrainhsr.Options{Workers: workers}}, sink)
					return err
				})
				if err != nil {
					return err
				}
			}
			return checkFlyover(body, want)
		},
		terrain: tr,
		eyes:    eyes,
	}, nil
}

// zipfMix returns n draws over k items in which item i appears in
// proportion to 1/(i+1)^s: the exact Zipf shares, rounded so the counts
// sum to n (largest remainders first), in item order.
func zipfMix(k, n int, s float64) []int {
	w := make([]float64, k)
	total := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		total += w[i]
	}
	count := make([]int, k)
	rem := make([]int, k)
	left := n
	for i := range w {
		count[i] = int(float64(n) * w[i] / total)
		left -= count[i]
		rem[i] = i
	}
	sort.SliceStable(rem, func(a, b int) bool {
		fa := float64(n)*w[rem[a]]/total - float64(count[rem[a]])
		fb := float64(n)*w[rem[b]]/total - float64(count[rem[b]])
		return fa > fb
	})
	for i := 0; i < left; i++ {
		count[rem[i]]++
	}
	var out []int
	for i, c := range count {
		for ; c > 0; c-- {
			out = append(out, i)
		}
	}
	return out
}

// solvePieces is the monolithic reference: FromPerspective + Solve, each
// piece encoded as the service encodes it.
func solvePieces(tr *terrainhsr.Terrain, eye terrainhsr.Point, workers int) ([][]byte, error) {
	pt, err := tr.FromPerspective(eye, 0)
	if err != nil {
		return nil, err
	}
	res, err := terrainhsr.Solve(pt, terrainhsr.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, p := range res.Pieces() {
		b, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// streamPieces collects a streaming solve's pieces, encoded as the service
// encodes them.
func streamPieces(run func(terrainhsr.PieceSink) error) ([][]byte, error) {
	var out [][]byte
	err := run(func(p terrainhsr.Piece) error {
		b, err := json.Marshal(p)
		out = append(out, b)
		return err
	})
	return out, err
}

// checkViewshed compares a /viewshed JSON body's pieces, byte for byte,
// with the reference encoding, and its k with the reference count.
func checkViewshed(body []byte, want [][]byte) error {
	var got struct {
		K      int               `json:"k"`
		Pieces []json.RawMessage `json:"pieces"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode response: %v", err)
	}
	if got.K != len(want) {
		return fmt.Errorf("k = %d, reference has %d pieces", got.K, len(want))
	}
	return samePieces(got.Pieces, want)
}

// checkFlyover compares every frame of a /flyover JSON body with the
// reference frames.
func checkFlyover(body []byte, want [][][]byte) error {
	var got struct {
		Frames []struct {
			Pieces []json.RawMessage `json:"pieces"`
		} `json:"frames"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode response: %v", err)
	}
	if len(got.Frames) != len(want) {
		return fmt.Errorf("%d frames, want %d", len(got.Frames), len(want))
	}
	for f := range want {
		if err := samePieces(got.Frames[f].Pieces, want[f]); err != nil {
			return fmt.Errorf("frame %d: %v", f, err)
		}
	}
	return nil
}

func samePieces(got []json.RawMessage, want [][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pieces, reference has %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("piece %d is %s, reference %s", i, got[i], want[i])
		}
	}
	return nil
}
