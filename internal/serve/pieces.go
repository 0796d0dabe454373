package serve

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"

	terrainhsr "terrainhsr"
)

// This file is the JSON encoder of visible pieces, the O(k) part of every
// JSON answer. It writes exactly the bytes encoding/json writes for a
// terrainhsr.Piece, without reflection and without allocating per piece.

// appendPiece appends the JSON encoding of p to dst:
// {"Edge":<int>,"X1":<f>,"Z1":<f>,"X2":<f>,"Z2":<f>}, byte for byte what
// json.Marshal(p) returns. A NaN or infinite coordinate fails with the
// same *json.UnsupportedValueError json.Marshal reports.
func appendPiece(dst []byte, p terrainhsr.Piece) ([]byte, error) {
	dst = append(dst, `{"Edge":`...)
	dst = strconv.AppendInt(dst, int64(p.Edge), 10)
	for _, f := range [...]struct {
		key string
		v   float64
	}{{`,"X1":`, p.X1}, {`,"Z1":`, p.Z1}, {`,"X2":`, p.X2}, {`,"Z2":`, p.Z2}} {
		var err error
		if dst, err = appendFloat(append(dst, f.key...), f.v); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendFloat appends f the way encoding/json encodes a float64: the
// shortest representation that round-trips, in plain decimal notation
// except for non-zero magnitudes below 1e-6 or from 1e21 up, which use an
// exponent with no leading zero in it (1e-7, not 1e-07).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if !finite(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// pieceChunk is how many encoded bytes a pieceWriter gathers before it
// writes them to the response.
const pieceChunk = 16 << 10

// maxPieceJSON bounds the encoding of one piece plus its separator, so a
// chunk that crosses pieceChunk by one piece never reallocates.
const maxPieceJSON = 256

// pieceWriter streams the elements of one JSON pieces array at a time: each
// piece goes on its own line at a fixed indentation, comma-separated, into
// one per-request buffer that reaches w in pieceChunk-sized writes. Callers
// flush before any other write to w, so the response bytes keep their
// order.
type pieceWriter struct {
	w   io.Writer
	nl  string // newline plus the element indentation
	buf []byte
	// n counts the pieces of the current array.
	n int
}

// newPieceWriter returns a writer whose pieces are indented by indent
// spaces.
func newPieceWriter(w io.Writer, indent int) *pieceWriter {
	return &pieceWriter{
		w:   w,
		nl:  "\n" + strings.Repeat(" ", indent),
		buf: make([]byte, 0, pieceChunk+maxPieceJSON),
	}
}

// open starts a new array: its first piece gets no comma.
func (pw *pieceWriter) open() { pw.n = 0 }

// piece appends one array element. An encoding error drops the element
// and flushes what precedes it, so a truncated response holds exactly the
// whole pieces written before the failure.
func (pw *pieceWriter) piece(p terrainhsr.Piece) error {
	mark := len(pw.buf)
	if pw.n > 0 {
		pw.buf = append(pw.buf, ',')
	}
	pw.buf = append(pw.buf, pw.nl...)
	var err error
	if pw.buf, err = appendPiece(pw.buf, p); err != nil {
		pw.buf = pw.buf[:mark]
		pw.flush()
		return err
	}
	pw.n++
	if len(pw.buf) >= pieceChunk {
		return pw.flush()
	}
	return nil
}

// flush writes the buffered pieces to w.
func (pw *pieceWriter) flush() error {
	if len(pw.buf) == 0 {
		return nil
	}
	_, err := pw.w.Write(pw.buf)
	pw.buf = pw.buf[:0]
	return err
}
