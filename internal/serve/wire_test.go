package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	terrainhsr "terrainhsr"
)

// The tests in this file pin the JSON wire format of the piece-streaming
// endpoints: every body must equal, byte for byte, what the reference
// writers below produce — the encoding/json piece loops the handlers used
// before the reflection-free encoder — from the body's own metadata and
// pieces solved independently by a second server.

// refPieces writes one pieces array's elements as the reference: one
// json.Marshal per piece, each on its own line at the given indentation,
// comma-separated.
func refPieces(t *testing.T, b *bytes.Buffer, pieces []terrainhsr.Piece, indent string) {
	t.Helper()
	for i, p := range pieces {
		sep := ",\n" + indent
		if i == 0 {
			sep = "\n" + indent
		}
		js, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(sep)
		b.Write(js)
	}
}

// refViewshed is the reference single-eye /viewshed JSON body.
func refViewshed(t *testing.T, resp viewshedResponse, pieces []terrainhsr.Piece) []byte {
	t.Helper()
	hdr, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.Write(bytes.TrimSuffix(hdr, []byte("\n}")))
	b.WriteString(",\n  \"pieces\": [")
	refPieces(t, &b, pieces, "    ")
	if len(pieces) == 0 {
		b.WriteString("]\n}\n")
	} else {
		b.WriteString("\n  ]\n}\n")
	}
	return b.Bytes()
}

// refPass is one pass of a progressive response: its header and pieces.
type refPass struct {
	resp   viewshedResponse
	pieces []terrainhsr.Piece
}

// refProgressive is the reference progressive /viewshed JSON body.
func refProgressive(t *testing.T, terrain string, passes []refPass) []byte {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"terrain\": %q,\n  \"passes\": [", terrain)
	for i, p := range passes {
		hdr, err := json.MarshalIndent(p.resp, "    ", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n    ")
		b.Write(bytes.TrimSuffix(hdr, []byte("\n    }")))
		b.WriteString(",\n      \"pieces\": [")
		refPieces(t, &b, p.pieces, "        ")
		if len(p.pieces) == 0 {
			b.WriteString("]\n    }")
		} else {
			b.WriteString("\n      ]\n    }")
		}
	}
	b.WriteString("\n  ]\n}\n")
	return b.Bytes()
}

// refFrame is one /flyover frame: its eye, pieces and trailing metadata.
type refFrame struct {
	eye    [3]float64
	pieces []terrainhsr.Piece
	meta   flyoverFrameMeta
}

// refFlyover is the reference /flyover JSON body.
func refFlyover(t *testing.T, terrain string, frames []refFrame) []byte {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"terrain\": %q,\n  \"frames\": [", terrain)
	for i, f := range frames {
		if i > 0 {
			b.WriteString(",")
		}
		eye, err := json.Marshal(f.eye)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "\n    {\n      \"eye\": %s,\n      \"pieces\": [", eye)
		refPieces(t, &b, f.pieces, "        ")
		if len(f.pieces) == 0 {
			b.WriteString("],")
		} else {
			b.WriteString("\n      ],")
		}
		meta, err := json.MarshalIndent(f.meta, "    ", "  ")
		if err != nil {
			t.Fatal(err)
		}
		b.Write(bytes.TrimPrefix(meta, []byte("{")))
	}
	b.WriteString("\n  ]\n}\n")
	return b.Bytes()
}

// sameBody fails with the first differing offset when got != want.
func sameBody(t *testing.T, name string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-80, 0)
	t.Fatalf("%s: body differs from the reference at byte %d of %d (want %d):\n got %q\nwant %q",
		name, i, len(got), len(want), got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
}

// serveBody answers one GET and requires a 200.
func serveBody(t *testing.T, h http.Handler, url string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// newDemoServer registers the terrain newTestHandler serves on a fresh
// server; a second one solves reference pieces independently.
func newDemoServer(t *testing.T) *terrainhsr.Server {
	t.Helper()
	tr, err := terrainhsr.Generate(terrainhsr.GenParams{Kind: "massive", Rows: 48, Cols: 48, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv := terrainhsr.NewServer(terrainhsr.ServerOptions{TileCells: 1024})
	if err := srv.Register("demo", tr); err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestViewshedJSONWireIdentity(t *testing.T) {
	h := New(newDemoServer(t), Options{})
	eye := terrainhsr.Point{X: -34, Y: 24.4, Z: 8}
	qr, err := newDemoServer(t).Query(terrainhsr.Query{TerrainID: "demo", Eye: eye, MinDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := qr.Result.Pieces()
	for _, cache := range []string{"miss", "hit"} {
		body := serveBody(t, h, "/viewshed?terrain=demo&eye=-34,24.4,8&mindepth=1")
		if len(body) < 3*pieceChunk {
			t.Fatalf("%d-byte body spans under three flush chunks", len(body))
		}
		var resp viewshedResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Cache != cache {
			t.Fatalf("cache %q, want %q", resp.Cache, cache)
		}
		sameBody(t, cache, body, refViewshed(t, resp, want))
	}
}

// writeDemoStore ingests a deterministic 40x40 DEM into a store directory.
func writeDemoStore(t *testing.T) string {
	t.Helper()
	r := rand.New(rand.NewSource(5))
	var b strings.Builder
	b.WriteString("ncols 40\nnrows 40\ncellsize 1\nNODATA_value -9999\n")
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			fmt.Fprintf(&b, "%g ", float64(r.Intn(160))/8)
		}
		b.WriteByte('\n')
	}
	dir := t.TempDir()
	asc := filepath.Join(dir, "dem.asc")
	if err := os.WriteFile(asc, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "store")
	if _, err := terrainhsr.BuildStore(asc, store, terrainhsr.StoreOptions{TileSamples: 16}); err != nil {
		t.Fatal(err)
	}
	return store
}

func TestProgressiveWireIdentity(t *testing.T) {
	store := writeDemoStore(t)
	servers := make([]*terrainhsr.Server, 2)
	for i := range servers {
		servers[i] = terrainhsr.NewServer(terrainhsr.ServerOptions{})
		if err := servers[i].RegisterStore("dem", store); err != nil {
			t.Fatal(err)
		}
	}
	var want [][]terrainhsr.Piece
	err := servers[1].QueryProgressive(terrainhsr.Query{TerrainID: "dem", Eye: terrainhsr.Point{X: -10, Y: 20, Z: 40}},
		func(terrainhsr.ProgressivePass) error { want = append(want, nil); return nil },
		func(p terrainhsr.Piece) error { want[len(want)-1] = append(want[len(want)-1], p); return nil })
	if err != nil {
		t.Fatal(err)
	}
	body := serveBody(t, New(servers[0], Options{}), "/viewshed?terrain=dem&eye=-10,20,40&progressive=1")
	var got struct {
		Terrain string             `json:"terrain"`
		Passes  []viewshedResponse `json:"passes"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Passes) != 2 || len(want) != 2 {
		t.Fatalf("%d passes served, %d solved; want coarse + final", len(got.Passes), len(want))
	}
	passes := make([]refPass, len(want))
	for i := range passes {
		passes[i] = refPass{resp: got.Passes[i], pieces: want[i]}
	}
	sameBody(t, "progressive", body, refProgressive(t, got.Terrain, passes))
}

func TestFlyoverWireIdentity(t *testing.T) {
	// Two moving frames, then two dwell frames that replay. No eye in front
	// of a terrain sees nothing (its nearest edge is always visible), so the
	// empty-frame form is covered by the reference writer alone.
	path := []terrainhsr.Point{{X: -34, Y: 24.4, Z: 8}, {X: -30, Y: 20, Z: 7.5}, {X: -30, Y: 20, Z: 7.5}, {X: -30, Y: 20, Z: 7.5}}
	url := "/flyover?terrain=demo&mindepth=1"
	for _, e := range path {
		url += fmt.Sprintf("&eye=%g,%g,%g", e.X, e.Y, e.Z)
	}
	body := serveBody(t, New(newDemoServer(t), Options{}), url)

	var got struct {
		Terrain string `json:"terrain"`
		Frames  []struct {
			Eye [3]float64 `json:"eye"`
			flyoverFrameMeta
		} `json:"frames"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Frames) != len(path) {
		t.Fatalf("%d frames, want %d", len(got.Frames), len(path))
	}
	ref := newDemoServer(t)
	frames := make([]refFrame, len(path))
	for i, e := range path {
		f := got.Frames[i]
		if i >= 2 && !f.Replayed {
			t.Fatalf("dwell frame %d did not replay", i)
		}
		frames[i] = refFrame{eye: f.Eye, meta: f.flyoverFrameMeta}
		_, err := ref.QuerySession(terrainhsr.Query{TerrainID: "demo", Eye: e, MinDepth: 1}, func(p terrainhsr.Piece) error {
			frames[i].pieces = append(frames[i].pieces, p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sameBody(t, "flyover", body, refFlyover(t, got.Terrain, frames))
}
