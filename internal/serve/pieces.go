package serve

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strconv"

	terrainhsr "terrainhsr"
	"terrainhsr/internal/freelist"
)

// This file is the JSON encoder of visible pieces, the O(k) part of every
// JSON answer. It writes exactly the bytes encoding/json writes for a
// terrainhsr.Piece, without reflection and without allocating per piece.
// A visible terrain vertex ends about four pieces, so most coordinates of
// a response repeat: the streaming writer formats each distinct float64
// once per response and copies its bytes for every repeat.

// appendPiece appends the JSON encoding of p to dst:
// {"Edge":<int>,"X1":<f>,"Z1":<f>,"X2":<f>,"Z2":<f>}, byte for byte what
// json.Marshal(p) returns. A NaN or infinite coordinate fails with the
// same *json.UnsupportedValueError json.Marshal reports.
func appendPiece(dst []byte, p terrainhsr.Piece) ([]byte, error) {
	return (*floatMemo)(nil).appendPiece(dst, p)
}

// appendPiece is the package-level appendPiece with every coordinate
// formatted through m; a nil m formats each one afresh.
func (m *floatMemo) appendPiece(dst []byte, p terrainhsr.Piece) ([]byte, error) {
	dst = append(dst, `{"Edge":`...)
	dst = strconv.AppendInt(dst, int64(p.Edge), 10)
	for _, f := range [...]struct {
		key string
		v   float64
	}{{`,"X1":`, p.X1}, {`,"Z1":`, p.Z1}, {`,"X2":`, p.X2}, {`,"Z2":`, p.Z2}} {
		var err error
		if dst, err = m.appendFloat(append(dst, f.key...), f.v); err != nil {
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

// floatMemo maps the bits of each float64 a response has written to its
// encoding, so a repeated coordinate is copied rather than formatted
// again. Keying by bits keeps +0 and -0 apart. It is an open-addressing
// table with linear probing, sized for the response by reserve or from
// memoMinSlots, that doubles when three quarters full; a generation stamp
// empties it in O(1) between responses. An encoding error is never stored.
type floatMemo struct {
	slots []memoSlot // len is zero or a power of two
	shift uint       // 64 - log2(len(slots)): the hash keeps the top bits
	arena []byte     // the encodings, each after its length byte
	live  int        // slots of the current generation
	gen   uint32     // a slot of any other generation is empty
}

// memoSlot is one memoized float: arena[off] is its encoding's length and
// the encoding follows.
type memoSlot struct {
	bits uint64
	gen  uint32
	off  uint32
}

const (
	// memoMinSlots is the table's smallest size.
	memoMinSlots = 256
	// memoMaxLive caps the distinct values one response memoizes (a table
	// of at most 32,768 slots); beyond it new values are formatted every
	// time they occur.
	memoMaxLive = 1 << 14
	// memoValueBytes is the arena room reserve makes per value: a length
	// byte and a typical coordinate's 17 to 19 characters.
	memoValueBytes = 20
	// memoHashMul is 2^64 divided by the golden ratio (Fibonacci hashing).
	memoHashMul = 0x9e3779b97f4a7c15
)

// reset empties the memo for a new response, keeping its storage.
func (m *floatMemo) reset() {
	m.arena, m.live = m.arena[:0], 0
	if m.gen++; m.gen == 0 { // wrapped: stale stamps could match again
		clear(m.slots)
		m.gen = 1
	}
}

// memoOverfull reports whether live values need more than size slots.
func memoOverfull(live, size int) bool { return 4*live > 3*size }

// reserve readies the memo for about k more pieces, which hold about k
// distinct coordinates (four per piece, each shared by about four pieces):
// the table is sized for them at once rather than doubling its way up, and
// the arena gets room for their encodings.
func (m *floatMemo) reserve(k int) {
	k = min(m.live+k, memoMaxLive)
	size := max(len(m.slots), memoMinSlots)
	for memoOverfull(k, size) {
		size *= 2
	}
	if size > len(m.slots) {
		m.rehash(size)
	}
	m.arena = slices.Grow(m.arena, (k-m.live)*memoValueBytes)
}

// appendFloat appends the encoding of f, formatting it only the first time
// m sees its bits. A nil m formats every value.
func (m *floatMemo) appendFloat(dst []byte, f float64) ([]byte, error) {
	if m == nil {
		return appendFloat(dst, f)
	}
	if m.slots == nil {
		m.rehash(memoMinSlots)
	}
	key := math.Float64bits(f)
	mask := len(m.slots) - 1
	i := int((key * memoHashMul) >> m.shift)
	for s := &m.slots[i]; s.gen == m.gen; s = &m.slots[i] {
		if s.bits == key {
			n := uint32(m.arena[s.off])
			return append(dst, m.arena[s.off+1:s.off+1+n]...), nil
		}
		i = (i + 1) & mask
	}
	start := len(dst)
	dst, err := appendFloat(dst, f)
	if err != nil || m.live == memoMaxLive {
		return dst, err
	}
	m.slots[i] = memoSlot{bits: key, gen: m.gen, off: uint32(len(m.arena))}
	m.arena = append(append(m.arena, byte(len(dst)-start)), dst[start:]...)
	if m.live++; memoOverfull(m.live, len(m.slots)) {
		m.rehash(2 * len(m.slots))
	}
	return dst, nil
}

// rehash moves the current generation's slots into a table of size slots.
func (m *floatMemo) rehash(size int) {
	old := m.slots
	m.slots = make([]memoSlot, size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.gen != m.gen {
			continue
		}
		i := int((s.bits * memoHashMul) >> m.shift)
		for m.slots[i].gen == m.gen {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}

// pieceChunk is how many encoded bytes a pieceWriter gathers before it
// writes them to the response.
const pieceChunk = 16 << 10

// maxPieceJSON bounds the encoding of one piece plus its separator, so a
// chunk that crosses pieceChunk by one piece never reallocates.
const maxPieceJSON = 256

// pieceIndent is a newline and the deepest element indentation; a writer
// slices its line prefix from it.
const pieceIndent = "\n        "

// pieceWriter streams the elements of one JSON pieces array at a time: each
// piece goes on its own line at a fixed indentation, comma-separated, into
// one chunk buffer that reaches w in pieceChunk-sized writes. Callers
// flush before any other write to w, so the response bytes keep their
// order. One writer serves one response, all of whose arrays share its
// memo (the passes of a progressive answer, the frames of a flyover).
// Writers are pooled: take one with newPieceWriter and give it back with
// release on every exit path.
type pieceWriter struct {
	w    io.Writer
	nl   string // newline plus the element indentation
	buf  []byte
	memo floatMemo
	// n counts the pieces of the current array.
	n int
}

// pieceWriters holds released writers with their chunk buffer, memo table
// and arena. A free list rather than a sync.Pool: a writer released on one
// P is found by a response on another, and idle writers survive garbage
// collections, so it holds at most as many writers as responses were ever
// encoded at once.
var pieceWriters freelist.List[pieceWriter]

// newPieceWriter takes a pooled writer for one response to w, with an
// empty memo and its pieces indented by indent spaces (at most 8).
func newPieceWriter(w io.Writer, indent int) *pieceWriter {
	pw := pieceWriters.Get()
	if pw.buf == nil {
		pw.buf = make([]byte, 0, pieceChunk+maxPieceJSON)
	}
	pw.w, pw.nl = w, pieceIndent[:1+indent]
	pw.buf, pw.n = pw.buf[:0], 0
	pw.memo.reset()
	return pw
}

// release returns pw to the pool. Whatever it still buffers is dropped.
func (pw *pieceWriter) release() {
	pw.w = nil
	pieceWriters.Put(pw)
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
	if pw.buf, err = pw.memo.appendPiece(pw.buf, p); err != nil {
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
