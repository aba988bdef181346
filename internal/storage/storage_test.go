package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

// TestRoundTrip spells out the canonical stream's wire form with
// encoding/binary alone — the magic and kind, stdlib varints,
// length-prefixed strings and delta-coded slices — and holds WriteStream's
// bytes and count to it.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteStream(&buf, func(sw *SnapshotWriter) {
		sw.StreamHeader("test")
		sw.Uvarint(42)
		sw.Varint(-7)
		sw.String("hello")
		sw.DeltaI32s([]int32{1, 5, 5, 100, -3})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("count %d != len %d", n, buf.Len())
	}
	want := append([]byte(Magic), 4)
	want = append(want, "test"...)
	want = binary.AppendUvarint(want, 42)
	want = binary.AppendVarint(want, -7)
	want = append(binary.AppendUvarint(want, 5), "hello"...)
	want = binary.AppendUvarint(want, 5)
	for _, d := range []int64{1, 4, 0, 95, -103} {
		want = binary.AppendVarint(want, d)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("stream = %x, want %x", buf.Bytes(), want)
	}
}

// TestBadMagic hands the canonical stream to the snapshot opener: the two
// share the "FLIX" prefix, and the stream must still fail the magic check.
func TestBadMagic(t *testing.T) {
	var buf bytes.Buffer
	_, err := WriteStream(&buf, func(sw *SnapshotWriter) {
		sw.StreamHeader("flix")
		sw.Raw(make([]byte, snapshotHeaderSize+snapshotFooterSize))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotBytes(buf.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// TestPropertyVarintRoundTrip reads what the stream helpers write back with
// the section reader; DeltaI32s's deltas sum back to the slice.
func TestPropertyVarintRoundTrip(t *testing.T) {
	err := quick.Check(func(v int64, u uint64, s string, sl []int32) bool {
		body, err := EncodeSectionBody(func(sw *SnapshotWriter) {
			sw.Varint(v)
			sw.Uvarint(u)
			sw.String(s)
			sw.DeltaI32s(sl)
		})
		if err != nil {
			return false
		}
		d := NewSectionData(body)
		if d.Varint() != v || d.Uvarint() != u || d.String() != s || d.Uvarint() != uint64(len(sl)) {
			return false
		}
		prev := int32(0)
		for _, want := range sl {
			prev += int32(d.Varint())
			if prev != want {
				return false
			}
		}
		return d.Err() == nil && d.Remaining() == 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
