package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"terrainhsr"
)

// TestBaselinesRefused pins that every query endpoint answers the
// quadratic baselines with a 400 naming the served set, before anything
// is looked up in the cache or solved.
func TestBaselinesRefused(t *testing.T) {
	tr, err := terrainhsr.Generate(terrainhsr.GenParams{Kind: "fractal", Rows: 8, Cols: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := terrainhsr.NewServer(terrainhsr.ServerOptions{})
	if err := srv.Register("demo", tr); err != nil {
		t.Fatal(err)
	}
	h := New(srv, Options{})
	endpoints := []string{
		"/viewshed?terrain=demo&eye=-8,4,12",
		"/viewshed?terrain=demo&eye=-8,4,12&nocache=1",
		"/viewshed?terrain=demo&eye=-8,4,12&eye=-7,4,11",
		"/viewshed?terrain=demo&eye=-8,4,12&progressive=1",
		"/viewshed?terrain=demo&eye=-8,4,12&format=svg",
		"/flyover?terrain=demo&eye=-8,4,12&eye=-7,4,11&frames=3",
	}
	before := srv.Stats()
	for _, algo := range []string{"brute-force", "all-pairs"} {
		for _, ep := range endpoints {
			url := ep + "&algorithm=" + algo
			body, code := getFlyover(t, h, url)
			if code != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", url, code)
			}
			if !strings.Contains(string(body), "served: parallel, parallel-hulls, parallel-copying, sequential, sequential-tree") {
				t.Errorf("%s: error does not name the served set: %s", url, body)
			}
		}
	}
	after := srv.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses || after.Solves != before.Solves || after.SessionFrames != before.SessionFrames {
		t.Fatalf("refused queries moved the counters: hits %d→%d misses %d→%d solves %d→%d frames %d→%d",
			before.Hits, after.Hits, before.Misses, after.Misses, before.Solves, after.Solves, before.SessionFrames, after.SessionFrames)
	}

	// The served set still answers, and /terrains lists only it.
	if body, code := getFlyover(t, h, "/viewshed?terrain=demo&eye=-8,4,12&algorithm=sequential-tree"); code != http.StatusOK {
		t.Fatalf("sequential-tree: status %d: %s", code, body)
	}
	body, code := getFlyover(t, h, "/terrains")
	if code != http.StatusOK {
		t.Fatalf("/terrains: status %d", code)
	}
	var list struct {
		Algorithms []string `json:"algorithms"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(list.Algorithms, ","), "parallel,parallel-hulls,parallel-copying,sequential,sequential-tree"; got != want {
		t.Fatalf("/terrains algorithms = %s, want %s", got, want)
	}
}
