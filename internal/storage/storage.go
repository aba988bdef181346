// Package storage provides the binary serialization substrate for the index
// structures: the snapshot container FliX persists and opens (snapshot.go —
// offset-based, checksummed, servable from a read-only memory mapping) and
// the canonical compact stream it only measures (this file).
//
// The paper stores all indexes in database tables and reports their sizes
// (Table 1).  This reproduction serializes each index into a tagged stream
// of varints and strings instead; the reported "index size" is the number of
// bytes Writer emits, and the determinism tests compare those bytes.  The
// stream is write-only: nothing reads it back, so it has no reader, no
// version negotiation and no corruption handling.
package storage

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
)

// Magic opens every canonical stream.
const Magic = "FLIX"

// Writer encodes varints, strings and slices onto an io.Writer and counts
// the bytes written — the canonical compact stream.
type Writer struct {
	w   *bufio.Writer
	n   int64
	err error
	buf [binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Header writes the magic and a format identifier for the index kind.
func (w *Writer) Header(kind string) {
	w.Raw([]byte(Magic))
	w.String(kind)
}

// Raw writes bytes verbatim.
func (w *Writer) Raw(b []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(b)
	w.n += int64(n)
	w.err = err
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	w.Raw(w.buf[:n])
}

// Varint writes a signed varint (zig-zag).
func (w *Writer) Varint(v int64) {
	if w.err != nil {
		return
	}
	n := binary.PutVarint(w.buf[:], v)
	w.Raw(w.buf[:n])
}

// Int32 writes a signed 32-bit value as a varint.
func (w *Writer) Int32(v int32) { w.Varint(int64(v)) }

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.Raw([]byte(s))
}

// Float64 writes an IEEE-754 double.
func (w *Writer) Float64(f float64) {
	if w.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	w.Raw(b[:])
}

// Int32Slice writes a length-prefixed slice of varint-encoded int32s,
// delta-encoding runs that are ascending (typical for sorted ID lists).
func (w *Writer) Int32Slice(s []int32) {
	w.Uvarint(uint64(len(s)))
	prev := int32(0)
	for _, v := range s {
		w.Varint(int64(v - prev))
		prev = v
	}
}

// Flush flushes buffered output and returns the first error and the byte
// count.
func (w *Writer) Flush() (int64, error) {
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.n, w.err
}

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

// SizeOf measures the serialized size of anything implementing io.WriterTo
// by writing it to a discarding counter.
func SizeOf(wt io.WriterTo) (int64, error) {
	return wt.WriteTo(io.Discard)
}
