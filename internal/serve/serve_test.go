package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	terrainhsr "terrainhsr"
	"terrainhsr/internal/loadgen"
	"terrainhsr/internal/workload"
)

// newTestHandler registers one small tiled-routed terrain and returns the
// HTTP handler over it.
func newTestHandler(t *testing.T) http.Handler {
	t.Helper()
	tr, err := terrainhsr.Generate(terrainhsr.GenParams{Kind: "massive", Rows: 48, Cols: 48, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv := terrainhsr.NewServer(terrainhsr.ServerOptions{TileCells: 1024})
	if err := srv.Register("demo", tr); err != nil {
		t.Fatal(err)
	}
	return New(srv, Options{})
}

// flyoverFrameJSON mirrors one /flyover frame for decoding in tests.
type flyoverFrameJSON struct {
	Eye          [3]float64        `json:"eye"`
	QuantizedEye [3]float64        `json:"quantized_eye"`
	Pieces       []json.RawMessage `json:"pieces"`
	Cache        string            `json:"cache"`
	Replayed     bool              `json:"replayed"`
	TilesReused  int               `json:"tiles_reused"`
	K            int               `json:"k"`
}

func getFlyover(t *testing.T, h http.Handler, url string) ([]byte, int) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec.Body.Bytes(), rec.Code
}

func TestFlyoverJSONStreamsFrames(t *testing.T) {
	h := newTestHandler(t)
	// Two waypoints interpolated to 4 frames, then the hand-built JSON must
	// parse and each frame must report k == len(pieces).
	body, code := getFlyover(t, h,
		"/flyover?terrain=demo&eye=-34,24.4,8&eye=-20,24.4,7&frames=4&mindepth=1")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp struct {
		Terrain string             `json:"terrain"`
		Frames  []flyoverFrameJSON `json:"frames"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("response is not valid JSON: %v\n%s", err, body)
	}
	if resp.Terrain != "demo" || len(resp.Frames) != 4 {
		t.Fatalf("terrain %q with %d frames, want demo with 4", resp.Terrain, len(resp.Frames))
	}
	for i, f := range resp.Frames {
		if f.Cache != "session" {
			t.Fatalf("frame %d cache %q, want session", i, f.Cache)
		}
		if f.K != len(f.Pieces) {
			t.Fatalf("frame %d reports k=%d but streamed %d pieces", i, f.K, len(f.Pieces))
		}
		if f.Replayed {
			t.Fatalf("frame %d of a moving path claims a replay", i)
		}
	}
}

func TestFlyoverDwellReplays(t *testing.T) {
	h := newTestHandler(t)
	body, code := getFlyover(t, h, "/flyover?terrain=demo&eye=-34,24.4,8&frames=3&mindepth=1")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp struct {
		Frames []flyoverFrameJSON `json:"frames"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("response is not valid JSON: %v\n%s", err, body)
	}
	if len(resp.Frames) != 3 {
		t.Fatalf("%d frames, want 3", len(resp.Frames))
	}
	if resp.Frames[0].Replayed {
		t.Fatal("first frame replayed")
	}
	for i, f := range resp.Frames[1:] {
		if !f.Replayed {
			t.Fatalf("dwell frame %d did not replay", i+1)
		}
		if len(f.Pieces) != len(resp.Frames[0].Pieces) {
			t.Fatalf("replayed frame %d has %d pieces, first frame %d",
				i+1, len(f.Pieces), len(resp.Frames[0].Pieces))
		}
	}
}

func TestFlyoverSVGRendersFinalFrame(t *testing.T) {
	h := newTestHandler(t)
	body, code := getFlyover(t, h,
		"/flyover?terrain=demo&eye=-34,24.4,8&eye=-30,24.4,7.5&format=svg&mindepth=1")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	s := string(body)
	if !strings.Contains(s, "<svg") || !strings.Contains(s, "</svg>") {
		t.Fatalf("response is not an SVG document:\n%.200s", s)
	}
	if !strings.Contains(s, "frame 2 of 2") {
		t.Fatalf("SVG title does not name the final frame:\n%.300s", s)
	}
}

func TestFlyoverErrors(t *testing.T) {
	h := newTestHandler(t)
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/flyover?terrain=nope&eye=-34,24.4,8", http.StatusNotFound},
		{"/flyover?terrain=demo", http.StatusBadRequest},
		{"/flyover?terrain=demo&eye=bogus", http.StatusBadRequest},
		{"/flyover?terrain=demo&eye=-34,24.4,8&frames=99999", http.StatusBadRequest},
		{"/flyover?terrain=demo&eye=-34,24.4,8&format=ascii", http.StatusBadRequest},
	} {
		if _, code := getFlyover(t, h, tc.url); code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.url, code, tc.code)
		}
	}
}

// TestFlyoverSessionLoadIdentity drives the session scenario end to end:
// loadgen's /flyover legs replayed several times over concurrent workers
// against a real handler must normalize to identical bodies — the reuse
// ledger varies with what the serving session remembers, the pieces never
// do.
func TestFlyoverSessionLoadIdentity(t *testing.T) {
	spec := "id=demo,kind=massive,rows=48,cols=48,seed=7"
	id, tr, err := BuildTerrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := terrainhsr.NewServer(terrainhsr.ServerOptions{TileCells: 1024})
	if err := srv.Register(id, tr); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(New(srv, Options{}))
	defer hs.Close()

	_, p, err := workload.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	wt, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := loadgen.Scenario(loadgen.ScenarioOptions{
		BaseURL:  hs.URL,
		Terrains: []loadgen.NamedTerrain{{ID: id, T: wt}},
		Mix:      "session",
		Count:    6,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := loadgen.Run(loadgen.Options{Workers: 2, Repeats: 3, CheckBodies: true}, reqs)
	if rep.Errors != 0 {
		t.Fatalf("%d errors: %v", rep.Errors, rep.ErrorSamples)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d identity mismatches across session repeats", rep.Mismatches)
	}
	if st := srv.Stats(); st.SessionFrames == 0 {
		t.Fatalf("no session frames counted: %+v", st)
	}
}

// TestNonFiniteParameters covers NaN and infinities in every float
// parameter: each is a 400 that names the parameter (and, for eyes, the
// coordinate), never a 200 with an empty or truncated body.
func TestNonFiniteParameters(t *testing.T) {
	h := newTestHandler(t)
	for _, tc := range []struct {
		url  string
		want string
	}{
		{"/viewshed?terrain=demo&eye=-10,Inf,5", "bad eye: coordinate y is not finite"},
		{"/viewshed?terrain=demo&eye=NaN,1,1", "bad eye: coordinate x is not finite"},
		{"/viewshed?terrain=demo&eye=-34,24.4,8&mindepth=NaN", "bad mindepth \"NaN\": not finite"},
		{"/viewshed?terrain=demo&eye=-34,24.4,8&budget=NaN", "bad budget \"NaN\": not finite"},
		{"/viewshed?terrain=demo&eye=-34,24.4,8&budget=-Inf", "bad budget \"-Inf\": not finite"},
		{"/viewshed?terrain=demo&eye=-34,24.4,8&eye=-34,24.4,infinity", "coordinate z is not finite"},
		{"/viewshed?terrain=demo&eye=-34,NaN,8&progressive=1", "bad eye: coordinate y is not finite"},
		{"/flyover?terrain=demo&eye=-10,5,NaN&eye=-10,6,5", "coordinate z is not finite"},
		{"/flyover?terrain=demo&eye=-34,24.4,8&mindepth=%2BInf", "bad mindepth \"+Inf\": not finite"},
		{"/flyover?terrain=demo&eye=-34,24.4,8&budget=NaN", "bad budget \"NaN\": not finite"},
	} {
		body, code := getFlyover(t, h, tc.url)
		if code != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: status %d %q, want 400 naming %q", tc.url, code, body, tc.want)
		}
	}
}

// TestViewshedHeaderEncodeFailure: a response header that cannot be
// encoded is a 500 before any body byte, not an empty 200.
func TestViewshedHeaderEncodeFailure(t *testing.T) {
	h := &handler{opt: Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}}
	rec := httptest.NewRecorder()
	h.writeViewshedJSON(rec, viewshedResponse{Eye: [3]float64{math.NaN(), 0, 0}}, nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); strings.Contains(ct, "json") {
		t.Fatalf("error answered as %q", ct)
	}
}

// TestEyeLimit: one limit bounds the eyes a request solves, whether they
// come as a multi-eye /viewshed list, /flyover waypoints or /flyover
// frames; above it the request is a 400 before anything solves.
func TestEyeLimit(t *testing.T) {
	h := newTestHandler(t)
	eyes := strings.Repeat("&eye=-34,24.4,8", maxEyes+1)
	for _, url := range []string{
		"/viewshed?terrain=demo" + eyes,
		"/flyover?terrain=demo" + eyes,
		fmt.Sprintf("/flyover?terrain=demo&eye=-34,24.4,8&frames=%d", maxEyes+1),
	} {
		body, code := getFlyover(t, h, url)
		if code != http.StatusBadRequest || !strings.Contains(string(body), "exceed the limit") {
			t.Errorf("%.60s...: status %d %q, want 400 naming the limit", url, code, body)
		}
	}
	if _, code := getFlyover(t, h, "/viewshed?terrain=demo&eye=-34,24.4,8&eye=-30,24.4,8"); code != http.StatusOK {
		t.Fatalf("two-eye viewshed: status %d", code)
	}
}

// TestASCIISizeLimit: an ASCII render allocates its whole character grid,
// so each side is capped; oversized renders are a 400, never an allocation.
func TestASCIISizeLimit(t *testing.T) {
	h := newTestHandler(t)
	for _, tc := range []struct {
		size string
		code int
	}{
		{"&width=100000&height=100000", http.StatusBadRequest},
		{fmt.Sprintf("&width=%d", maxASCIISide+1), http.StatusBadRequest},
		{fmt.Sprintf("&height=%d", maxASCIISide+1), http.StatusBadRequest},
		{fmt.Sprintf("&width=%d&height=3", maxASCIISide), http.StatusOK},
	} {
		body, code := getFlyover(t, h, "/viewshed?terrain=demo&eye=-34,24.4,8&format=ascii"+tc.size)
		if code != tc.code {
			t.Errorf("%s: status %d %.80q, want %d", tc.size, code, body, tc.code)
		}
	}
}

// TestUnknownTerrainStatus: 404 means the terrain is missing, nothing else
// — an algorithm that merely reads like the not-found message is a 400.
func TestUnknownTerrainStatus(t *testing.T) {
	h := newTestHandler(t)
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/viewshed?terrain=nope&eye=-34,24.4,8", http.StatusNotFound},
		{"/viewshed?terrain=nope&eye=-34,24.4,8&eye=-30,24.4,8", http.StatusNotFound},
		{"/viewshed?terrain=nope&eye=-34,24.4,8&progressive=1", http.StatusNotFound},
		{"/viewshed?terrain=demo&eye=-34,24.4,8&algorithm=no+terrain", http.StatusBadRequest},
		{"/viewshed?terrain=demo&eye=-34,24.4,8&eye=-30,24.4,8&algorithm=no+terrain+registered", http.StatusBadRequest},
		{"/flyover?terrain=demo&eye=-34,24.4,8&algorithm=no+terrain", http.StatusBadRequest},
	} {
		if body, code := getFlyover(t, h, tc.url); code != tc.code {
			t.Errorf("%s: status %d %q, want %d", tc.url, code, body, tc.code)
		}
	}
}
