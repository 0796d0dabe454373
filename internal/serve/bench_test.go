package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	terrainhsr "terrainhsr"
)

// benchServe registers one massive terrain of cells x cells cells on a
// fresh server and returns the handler over it.
func benchServe(b testing.TB, cells, tileCells int) http.Handler {
	b.Helper()
	tr, err := terrainhsr.Generate(terrainhsr.GenParams{Kind: "massive", Rows: cells, Cols: cells, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv := terrainhsr.NewServer(terrainhsr.ServerOptions{TileCells: tileCells})
	if err := srv.Register("massive", tr); err != nil {
		b.Fatal(err)
	}
	return New(srv, Options{})
}

// serveInto answers one request into a reused recorder and fails on any
// status but 200.
func serveInto(b testing.TB, h http.Handler, rec *httptest.ResponseRecorder, req *http.Request) {
	rec.Body.Reset()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// BenchmarkViewshedJSONHit is the serve-encode layer on its own: a
// single-eye /viewshed JSON answer that is a cache hit, so the handler does
// no solving and its time is parsing, the cache lookup and encoding the
// pieces.
func BenchmarkViewshedJSONHit(b *testing.B) {
	h := benchServe(b, 40, 0)
	req := httptest.NewRequest(http.MethodGet, "/viewshed?terrain=massive&eye=-4,8,14", nil)
	rec := httptest.NewRecorder()
	serveInto(b, h, rec, req) // the miss that fills the cache
	serveInto(b, h, rec, req)
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"cache": "hit"`)) {
		b.Fatalf("second query is not a cache hit:\n%.400s", rec.Body.Bytes())
	}
	b.SetBytes(int64(rec.Body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveInto(b, h, rec, req)
	}
}

// TestViewshedJSONHitAllocs pins what BenchmarkViewshedJSONHit's cache-hit
// answer allocates: 13 allocations on go1.24, all of them parsing the
// request, building the cache key (one allocation; it took five before the
// key was written into one buffer, 17 in all) and encoding the header
// fields. The pieces' writer, with its chunk buffer and memo, comes from a
// pool (the answer allocated 19 times, 21 KB, when each response made its
// own 16 KiB chunk buffer and indent string). The ceiling is that count.
func TestViewshedJSONHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pools in the request path drop items at random, so the count does not repeat")
	}
	const ceiling = 13
	h := benchServe(t, 40, 0)
	req := httptest.NewRequest(http.MethodGet, "/viewshed?terrain=massive&eye=-4,8,14", nil)
	rec := httptest.NewRecorder()
	serveInto(t, h, rec, req) // the miss that fills the cache
	serveInto(t, h, rec, req) // warms the writer pool and the recorder
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"cache": "hit"`)) {
		t.Fatalf("second query is not a cache hit:\n%.400s", rec.Body.Bytes())
	}
	if n := testing.AllocsPerRun(50, func() { serveInto(t, h, rec, req) }); n > ceiling {
		t.Fatalf("cache-hit /viewshed JSON answer allocates %v times, ceiling %d", n, ceiling)
	}
}

// BenchmarkFlyoverJSON is one /flyover leg over a tiled terrain: two moving
// frames that warm-start from the frame before, then two dwell frames that
// replay. Each iteration reuses the server's session, so it measures the
// steady state of a repeated leg: solving plus encoding every frame.
func BenchmarkFlyoverJSON(b *testing.B) {
	h := benchServe(b, 48, 1024)
	req := httptest.NewRequest(http.MethodGet,
		"/flyover?terrain=massive&eye=-8,12,6.5&eye=-9,18,6.5&eye=-10,24,6.5&eye=-10,24,6.5&eye=-10,24,6.5", nil)
	rec := httptest.NewRecorder()
	serveInto(b, h, rec, req)
	b.SetBytes(int64(rec.Body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveInto(b, h, rec, req)
	}
}
