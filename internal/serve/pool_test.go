package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	terrainhsr "terrainhsr"
)

// poolEyes are the eyes the pool tests serve on newDemoServer's terrain.
var poolEyes = []terrainhsr.Point{
	{X: -34, Y: 24.4, Z: 8}, {X: -30, Y: 20, Z: 7.5}, {X: -20, Y: 10, Z: 12}, {X: -8, Y: 40, Z: 9},
}

func poolURL(e terrainhsr.Point) string {
	return fmt.Sprintf("/viewshed?terrain=demo&eye=%g,%g,%g&mindepth=1", e.X, e.Y, e.Z)
}

// poolRefs solves every pool eye on an independent server.
func poolRefs(t *testing.T) [][]terrainhsr.Piece {
	t.Helper()
	ref := newDemoServer(t)
	want := make([][]terrainhsr.Piece, len(poolEyes))
	for i, e := range poolEyes {
		qr, err := ref.Query(terrainhsr.Query{TerrainID: "demo", Eye: e, MinDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = qr.Result.Pieces()
	}
	return want
}

// checkViewshedBody compares a /viewshed body with the reference body
// built from its own header fields and the reference pieces.
func checkViewshedBody(t *testing.T, name string, body []byte, pieces []terrainhsr.Piece) {
	t.Helper()
	var resp viewshedResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sameBody(t, name, body, refViewshed(t, resp, pieces))
}

// TestPooledWriterConcurrentBodies serves different eyes from several
// goroutines through one handler, so pooled writers pass between
// responses that overlap in time, and requires every body to equal its
// serial reference.
func TestPooledWriterConcurrentBodies(t *testing.T) {
	want := poolRefs(t)
	h := New(newDemoServer(t), Options{})
	const goroutines, rounds = 4, 6
	bodies := make([][][]byte, goroutines)
	var wg sync.WaitGroup
	for g := range bodies {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, poolURL(poolEyes[(g+r)%len(poolEyes)]), nil))
				bodies[g] = append(bodies[g], rec.Body.Bytes())
			}
		}(g)
	}
	wg.Wait()
	for g, bs := range bodies {
		for r, body := range bs {
			checkViewshedBody(t, fmt.Sprintf("goroutine %d round %d", g, r), body, want[(g+r)%len(poolEyes)])
		}
	}
}

// failingResponse is a ResponseWriter whose connection drops after limit
// body bytes, in the middle of a chunk.
type failingResponse struct {
	failAfter
	header http.Header
}

func (w *failingResponse) Header() http.Header { return w.header }
func (w *failingResponse) WriteHeader(int)     {}

// TestPooledWriterAfterDroppedConnection cuts /viewshed and /flyover
// streams short with a failing connection, and requires the answers that
// follow through the same handler, whose writers come from the same pool,
// to be whole.
func TestPooledWriterAfterDroppedConnection(t *testing.T) {
	want := poolRefs(t)
	h := New(newDemoServer(t), Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	flyover := "/flyover?terrain=demo&mindepth=1&eye=-34,24.4,8&eye=-30,20,7.5&eye=-30,20,7.5"
	for i, url := range []string{poolURL(poolEyes[0]), flyover} {
		w := &failingResponse{failAfter: failAfter{limit: 2*pieceChunk + 100}, header: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
		if w.Len() != w.limit {
			t.Fatalf("%s: %d bytes reached the connection, want the %d before it dropped", url, w.Len(), w.limit)
		}
		for j, e := range poolEyes {
			checkViewshedBody(t, fmt.Sprintf("after dropped stream %d, eye %d", i, j), serveBody(t, h, poolURL(e)), want[j])
		}
	}
}
