package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	terrainhsr "terrainhsr"
)

// checkAppendPiece fails unless appendPiece(p) is byte for byte json.Marshal(p),
// or both fail.
func checkAppendPiece(t *testing.T, p terrainhsr.Piece) {
	t.Helper()
	want, wantErr := json.Marshal(p)
	got, err := appendPiece([]byte("prefix"), p)
	switch {
	case wantErr != nil && err != nil:
		if err.Error() != wantErr.Error() {
			t.Errorf("%+v: error %q, encoding/json %q", p, err, wantErr)
		}
	case wantErr != nil || err != nil:
		t.Errorf("%+v: error %v, encoding/json error %v", p, err, wantErr)
	case !bytes.Equal(got, append([]byte("prefix"), want...)):
		t.Errorf("%+v:\n got %s\nwant prefix%s", p, got, want)
	}
}

func TestAppendPieceMatchesEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, -24.4,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, // the smallest plain-decimal magnitude
		1e21, math.Nextafter(1e21, 0), -1e21, // the largest plain-decimal magnitude
		1e-7, 1e-9, -1.5e-8, 1e22, 1e100, 1e-100, // exponents, shortened and not
		5e-324, math.MaxFloat64, -math.MaxFloat64,
	}
	for _, f := range floats {
		checkAppendPiece(t, terrainhsr.Piece{Edge: 3, X1: f, Z1: -f, X2: f / 2, Z2: f * 3})
	}
	for _, e := range []int32{0, -1, math.MaxInt32, -math.MaxInt32, math.MinInt32} {
		checkAppendPiece(t, terrainhsr.Piece{Edge: e, X1: 1, Z1: 2, X2: 3, Z2: 4})
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkAppendPiece(t, terrainhsr.Piece{X1: 1, Z1: 2, X2: 3, Z2: f})
		if _, err := appendPiece(nil, terrainhsr.Piece{X1: f}); err == nil {
			t.Errorf("X1=%v encoded without error", f)
		} else if _, ok := err.(*json.UnsupportedValueError); !ok {
			t.Errorf("X1=%v: error %T, want *json.UnsupportedValueError", f, err)
		}
	}
}

func FuzzAppendPiece(f *testing.F) {
	f.Add(int32(0), 0.0, 0.0, 0.0, 0.0)
	f.Add(int32(-1), 1e-6, 1e21, 1e-7, -5e-324)
	f.Add(int32(math.MaxInt32), math.MaxFloat64, -1e-9, 0.1, 24.4)
	f.Add(int32(7), math.NaN(), 1.0, math.Inf(1), 2.0)
	f.Fuzz(func(t *testing.T, edge int32, x1, z1, x2, z2 float64) {
		checkAppendPiece(t, terrainhsr.Piece{Edge: edge, X1: x1, Z1: z1, X2: x2, Z2: z2})
	})
}

// writeLog records the size of every Write it receives.
type writeLog struct {
	bytes.Buffer
	sizes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

func TestPieceWriterChunks(t *testing.T) {
	var w writeLog
	pw := newPieceWriter(&w, 4)
	var want bytes.Buffer
	const n = 2000
	for i := 0; i < n; i++ {
		p := terrainhsr.Piece{Edge: int32(i), X1: float64(i) / 7, Z1: 1, X2: float64(i+1) / 7, Z2: -2}
		if err := pw.piece(p); err != nil {
			t.Fatal(err)
		}
		sep := ",\n    "
		if i == 0 {
			sep = "\n    "
		}
		b, _ := json.Marshal(p)
		want.WriteString(sep)
		want.Write(b)
	}
	if err := pw.flush(); err != nil {
		t.Fatal(err)
	}
	if pw.n != n {
		t.Fatalf("counted %d pieces, want %d", pw.n, n)
	}
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Fatal("piece writer bytes differ from the json.Marshal loop")
	}
	if len(w.sizes) < 3 {
		t.Fatalf("%d bytes arrived in %d writes, want several chunks", w.Len(), len(w.sizes))
	}
	for i, s := range w.sizes {
		if s > pieceChunk+maxPieceJSON || (i < len(w.sizes)-1 && s < pieceChunk) {
			t.Fatalf("write %d of %d is %d bytes; chunks are %d", i, len(w.sizes), s, pieceChunk)
		}
	}

	// An unencodable piece is dropped whole and what precedes it flushed.
	w = writeLog{}
	pw = newPieceWriter(&w, 8)
	if err := pw.piece(terrainhsr.Piece{X1: 1}); err != nil {
		t.Fatal(err)
	}
	if err := pw.piece(terrainhsr.Piece{X1: math.NaN()}); err == nil {
		t.Fatal("NaN piece encoded without error")
	}
	if got, want := w.String(), "\n        "+`{"Edge":0,"X1":1,"Z1":0,"X2":0,"Z2":0}`; got != want {
		t.Fatalf("truncated stream %q, want %q", got, want)
	}
}
