package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// decoder reads the canonical stream back with encoding/binary alone: the
// stream has no production reader, so the tests spell out its wire form —
// stdlib varints, length-prefixed strings, little-endian doubles and
// delta-coded slices.
type decoder struct {
	t *testing.T
	r *bytes.Reader
}

func (d decoder) uvarint() uint64 {
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.t.Fatal(err)
	}
	return v
}

func (d decoder) varint() int64 {
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.t.Fatal(err)
	}
	return v
}

func (d decoder) raw(n int) []byte {
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.t.Fatal(err)
	}
	return b
}

func (d decoder) str() string { return string(d.raw(int(d.uvarint()))) }

func (d decoder) float64() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(d.raw(8)))
}

func (d decoder) int32Slice() []int32 {
	s := make([]int32, d.uvarint())
	prev := int32(0)
	for i := range s {
		prev += int32(d.varint())
		s[i] = prev
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Header("test")
	w.Uvarint(42)
	w.Varint(-7)
	w.Int32(123456)
	w.String("hello")
	w.Float64(3.25)
	w.Int32Slice([]int32{1, 5, 5, 100, -3})
	n, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("count %d != len %d", n, buf.Len())
	}

	d := decoder{t, bytes.NewReader(buf.Bytes())}
	if got := string(d.raw(len(Magic))); got != Magic {
		t.Errorf("magic = %q", got)
	}
	if got := d.str(); got != "test" {
		t.Errorf("kind = %q", got)
	}
	if got := d.uvarint(); got != 42 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.varint(); got != -7 {
		t.Errorf("Varint = %d", got)
	}
	if got := d.varint(); got != 123456 {
		t.Errorf("Int32 = %d", got)
	}
	if got := d.str(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := d.float64(); got != 3.25 {
		t.Errorf("Float64 = %g", got)
	}
	if got := d.int32Slice(); !reflect.DeepEqual(got, []int32{1, 5, 5, 100, -3}) {
		t.Errorf("Int32Slice = %v", got)
	}
	if d.r.Len() != 0 {
		t.Errorf("%d trailing bytes", d.r.Len())
	}
}

// TestBadMagic hands the canonical stream to the snapshot opener: the two
// share the "FLIX" prefix, and the stream must still fail the magic check.
func TestBadMagic(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Header("flix")
	w.Raw(make([]byte, snapshotHeaderSize+snapshotFooterSize))
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotBytes(buf.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestPropertyVarintRoundTrip(t *testing.T) {
	err := quick.Check(func(v int64, u uint64, f float64, s string, sl []int32) bool {
		if math.IsNaN(f) {
			f = 0
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Varint(v)
		w.Uvarint(u)
		w.Float64(f)
		w.String(s)
		w.Int32Slice(sl)
		if _, err := w.Flush(); err != nil {
			return false
		}
		d := decoder{t, bytes.NewReader(buf.Bytes())}
		if d.varint() != v || d.uvarint() != u || d.float64() != f || d.str() != s {
			return false
		}
		got := d.int32Slice()
		if len(got) != len(sl) {
			return false
		}
		for i := range got {
			if got[i] != sl[i] {
				return false
			}
		}
		return d.r.Len() == 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSizeOf(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Header("x")
	w.Int32Slice(make([]int32, 100))
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := SizeOf(bytesWriterTo(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(buf.Len()) {
		t.Errorf("SizeOf = %d, want %d", got, buf.Len())
	}
}

type bytesWriterTo []byte

func (b bytesWriterTo) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(b)
	return int64(n), err
}
