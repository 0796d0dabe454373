package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	terrainhsr "terrainhsr"
)

// FuzzServeParams feeds arbitrary raw query strings to /viewshed and
// /flyover over a tiny registered terrain. Whatever the parameters, the
// handler must not panic and must answer 200, 400 (a rejected request) or
// 404 (an unknown terrain) — never a 500 or any other status.
func FuzzServeParams(f *testing.F) {
	tr, err := terrainhsr.Generate(terrainhsr.GenParams{Kind: "fractal", Rows: 4, Cols: 4, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	srv := terrainhsr.NewServer(terrainhsr.ServerOptions{TileCells: 9})
	if err := srv.Register("t", tr); err != nil {
		f.Fatal(err)
	}
	h := New(srv, Options{})
	for _, seed := range []string{
		"terrain=t&eye=-8,2,6",
		"eye=-8,2,6&format=svg&width=40",
		"eye=-8,2,6&format=ascii&width=20&height=5",
		"eye=-8,2,6&progressive=1&budget=2",
		"eye=-8,2,6&eye=-7,2,5&nocache=1&algorithm=sequential",
		"terrain=nope&eye=-8,2,6",
		"eye=-8,2,6&frames=3&mindepth=0.5",
		"eye=-8,2,6&eye=-6,3,5&frames=4&format=svg",
		"eye=1,1,1&algorithm=no+terrain",
		"eye=NaN,1,1&budget=-Inf&width=-3",
		"eye=%zz&frames=99999999999999999999",
	} {
		f.Add("/viewshed", seed)
		f.Add("/flyover", seed)
	}
	f.Fuzz(func(t *testing.T, path, raw string) {
		if path != "/flyover" {
			path = "/viewshed"
		}
		req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: path, RawQuery: raw}, Header: http.Header{}}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("%s?%s: status %d: %.200s", path, raw, rec.Code, rec.Body.String())
		}
	})
}
