package storage

import (
	"bufio"
	"io"
)

// Magic opens every canonical stream, and every index's part of one.
const Magic = "FLIX"

// WriteStream writes a canonical stream onto w: enc runs against a detached
// SnapshotWriter, as in EncodeSectionBody, whose bytes go to w buffered.  It
// returns the byte count and the first error.
func WriteStream(w io.Writer, enc func(*SnapshotWriter)) (int64, error) {
	bw := bufio.NewWriter(w)
	sw := &SnapshotWriter{w: bw}
	enc(sw)
	if sw.err == nil {
		sw.err = bw.Flush()
	}
	return sw.off, sw.err
}

// StreamHeader writes the magic and a format identifier for the index kind:
// the head of a canonical stream and of each index's part of it.
func (sw *SnapshotWriter) StreamHeader(kind string) {
	sw.write([]byte(Magic))
	sw.String(kind)
}

// DeltaI32s writes a length-prefixed slice as signed varint deltas, each
// value minus its predecessor (the first minus 0): sorted ID lists, the
// common case, cost a byte or so per value.
func (sw *SnapshotWriter) DeltaI32s(s []int32) {
	sw.Uvarint(uint64(len(s)))
	prev := int32(0)
	for _, v := range s {
		sw.Varint(int64(v - prev))
		prev = v
	}
}
