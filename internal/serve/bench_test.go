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
func benchServe(b *testing.B, cells, tileCells int) http.Handler {
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

// serveInto answers one request into a reused recorder and fails the
// benchmark on any status but 200.
func serveInto(b *testing.B, h http.Handler, rec *httptest.ResponseRecorder, req *http.Request) {
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
