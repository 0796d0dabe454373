package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
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

// streamArrays writes arrays through one pooled writer, as the progressive
// and flyover answers do: each array opened, flushed and followed by a '|'
// the writer does not produce. It stops at the first error.
func streamArrays(arrays [][]terrainhsr.Piece) ([]byte, error) {
	var out bytes.Buffer
	pw := newPieceWriter(&out, 8)
	defer pw.release()
	for _, a := range arrays {
		pw.open()
		for _, p := range a {
			if err := pw.piece(p); err != nil {
				return out.Bytes(), err
			}
		}
		if err := pw.flush(); err != nil {
			return out.Bytes(), err
		}
		out.WriteByte('|')
	}
	return out.Bytes(), nil
}

// refArrays is streamArrays' reference: the arrays up to the first piece
// json.Marshal rejects, joined as refPieces joins them, and whether a
// piece was rejected.
func refArrays(t *testing.T, arrays [][]terrainhsr.Piece) ([]byte, bool) {
	var b bytes.Buffer
	for _, a := range arrays {
		for i, p := range a {
			if _, err := json.Marshal(p); err != nil {
				refPieces(t, &b, a[:i], "        ")
				return b.Bytes(), true
			}
		}
		refPieces(t, &b, a, "        ")
		b.WriteByte('|')
	}
	return b.Bytes(), false
}

// FuzzPieceWriter streams pieces drawn from a small pool of floats, so that
// values repeat, through one pooled writer over several arrays, and checks
// the bytes against json.Marshal of each piece, twice: the second stream
// takes a released writer from the pool. The pool holds size values (one
// to 2,048): x0..x3, then x0..x3 shifted by step, by 2*step, and so on. In
// ops a zero byte starts a new array; any other byte b is a piece with
// Edge b-100 whose four coordinates each advance a cursor through the pool
// by the next byte.
func FuzzPieceWriter(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(0.0, negZero, 1.0, -1.0, 0.0, uint16(4), []byte{7, 0, 1, 1, 1, 0, 9, 2, 2, 2, 2, 5, 3, 1, 0, 2})
	f.Add(1e-7, 1e21, -1e-7, -1e21, 0.5, uint16(12), []byte{1, 0, 1, 2, 3, 2, 4, 4, 4, 4, 0, 3, 1, 1, 1, 1})
	f.Add(5e-324, -5e-324, math.MaxFloat64, 1e-6, 5e-324, uint16(8), []byte{4, 0, 1, 2, 3, 0, 4, 5, 6, 7, 8})
	f.Add(1.5, 2.25, -3.125, math.NaN(), 0.0, uint16(4), []byte{1, 0, 1, 1, 0, 0, 2, 0, 0, 0, 0, 3, 2, 0, 0, 3, 4, 1, 1, 1, 1})
	many := make([]byte, 0, 5*300)
	for i := 0; i < 300; i++ { // 1,200 distinct values: the table grows several times
		many = append(many, byte(1+i%200), 1, 1, 1, 1)
		if i%70 == 69 {
			many = append(many, 0)
		}
	}
	f.Add(0.1, -7.3, 1e-3, 42.0, 1.0/3, uint16(1200), many)
	f.Fuzz(func(t *testing.T, x0, x1, x2, x3, step float64, size uint16, ops []byte) {
		xs := [4]float64{x0, x1, x2, x3}
		vals := make([]float64, max(int(size)%2049, 1))
		for j := range vals {
			vals[j] = xs[j%4]
			if j >= 4 {
				vals[j] += float64(j/4) * step
			}
		}
		arrays := [][]terrainhsr.Piece{nil}
		for i, cur := 0, 0; i < len(ops); {
			op := ops[i]
			i++
			if op == 0 {
				arrays = append(arrays, nil)
				continue
			}
			var c [4]float64
			for j := range c {
				if i < len(ops) {
					cur = (cur + int(ops[i])) % len(vals)
					i++
				}
				c[j] = vals[cur]
			}
			last := len(arrays) - 1
			arrays[last] = append(arrays[last], terrainhsr.Piece{Edge: int32(op) - 100, X1: c[0], Z1: c[1], X2: c[2], Z2: c[3]})
		}
		want, rejected := refArrays(t, arrays)
		for run := 0; run < 2; run++ {
			got, err := streamArrays(arrays)
			if rejected {
				if _, ok := err.(*json.UnsupportedValueError); !ok {
					t.Fatalf("run %d: error %v, want *json.UnsupportedValueError", run, err)
				}
			} else if err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("run %d: streamed\n%q\nwant\n%q", run, got, want)
			}
		}
	})
}

// failAfter accepts limit bytes, then fails: the Write that crosses the
// limit keeps only the bytes up to it.
type failAfter struct {
	bytes.Buffer
	limit int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if room := max(w.limit-w.Len(), 0); len(p) > room {
		w.Buffer.Write(p[:room])
		return room, errors.New("connection reset")
	}
	return w.Buffer.Write(p)
}

// TestPieceWriterReuseAfterTruncation releases writers whose streams were
// cut short, by an encoding error, by a Write failing in the middle of a
// chunk and by a release before the last flush, and requires the next response's writer to start clean: no
// leftover comma or buffered bytes, and no memoized encoding from the
// earlier response pointing into an arena that now holds other values.
func TestPieceWriterReuseAfterTruncation(t *testing.T) {
	first := make([]terrainhsr.Piece, 3000)
	for i := range first {
		first[i] = terrainhsr.Piece{Edge: int32(i), X1: float64(i) / 7, Z1: 0.25, X2: float64(i+1) / 7, Z2: -1.5}
	}
	second := make([]terrainhsr.Piece, 0, 2*len(first))
	for i := range first { // new values first, then the first response's
		second = append(second, terrainhsr.Piece{Edge: int32(i), X1: float64(i) / 3, Z1: 1e-7, X2: float64(i) / 11, Z2: 1e21})
	}
	second = append(second, first...)
	want, _ := refArrays(t, [][]terrainhsr.Piece{second})

	cut := map[string]func(*testing.T){
		"encode error": func(t *testing.T) {
			var w bytes.Buffer
			pw := newPieceWriter(&w, 8)
			defer pw.release()
			for _, p := range first[:200] {
				if err := pw.piece(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := pw.piece(terrainhsr.Piece{X1: 1, Z2: math.Inf(1)}); err == nil {
				t.Fatal("infinite piece encoded without error")
			}
			ref, _ := refArrays(t, [][]terrainhsr.Piece{first[:200]})
			sameBody(t, "truncated stream", append(w.Bytes(), '|'), ref)
		},
		"release unflushed": func(t *testing.T) {
			pw := newPieceWriter(io.Discard, 8)
			defer pw.release()
			for _, p := range first[:100] {
				if err := pw.piece(p); err != nil {
					t.Fatal(err)
				}
			}
		},
		"write error": func(t *testing.T) {
			w := failAfter{limit: pieceChunk + pieceChunk/2}
			pw := newPieceWriter(&w, 8)
			defer pw.release()
			var err error
			for _, p := range first {
				if err = pw.piece(p); err != nil {
					break
				}
			}
			if err == nil {
				t.Fatal("stream outlived its failing writer")
			}
		},
	}
	for name, truncate := range cut {
		t.Run(name, func(t *testing.T) {
			truncate(t)
			got, err := streamArrays([][]terrainhsr.Piece{second})
			if err != nil {
				t.Fatal(err)
			}
			sameBody(t, "next response", got, want)
		})
	}
}
