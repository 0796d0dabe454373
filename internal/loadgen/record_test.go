package loadgen

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWriteRecordsPinsJSON pins the bytes hsrload -json writes: field
// names, their order, the Extra keys, and [] (not null) for no records.
func TestWriteRecordsPinsJSON(t *testing.T) {
	rep := Report{
		Requests: 8, Errors: 2, Mismatches: 1, QPS: 12.5,
		Wall: 640 * time.Millisecond,
		P50:  3 * time.Millisecond, P90: 4500 * time.Microsecond,
		P99: 7 * time.Millisecond, Max: 9250 * time.Microsecond,
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		records []Record
		want    string
	}{
		{"none", nil, "[]\n"},
		{"one", []Record{rep.Record("F1", "fleet-3", 4)}, `[
  {
    "experiment": "F1",
    "variant": "fleet-3",
    "wall_ms": 640,
    "workers": 4,
    "extra": {
      "error_rate": 0.25,
      "errors": 2,
      "max_ms": 9.25,
      "mismatches": 1,
      "p50_ms": 3,
      "p90_ms": 4.5,
      "p99_ms": 7,
      "queries_per_sec": 12.5,
      "requests": 8
    }
  }
]
`},
	} {
		path := filepath.Join(dir, tc.name+".json")
		if err := WriteRecords(path, tc.records); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Fatalf("%s: wrote\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
