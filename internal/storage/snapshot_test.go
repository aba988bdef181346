package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// buildTestSnapshot emits a small two-section snapshot exercising every
// writer primitive.
func buildTestSnapshot(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewSnapshotWriter(&buf)
	sw.Begin(SectionManifest)
	sw.Varint(-42)
	sw.Uvarint(7)
	sw.String("manifest")
	sw.U64(0xdeadbeef)
	sw.End()
	sw.Begin(SectionPPO)
	sw.U32(3)
	sw.I32s([]int32{-1, 0, 1})
	sw.U32s([]uint32{0, 2, 3})
	sw.Align(8)
	sw.U64s([]uint64{1 << 40, 2})
	sw.Raw([]byte{9, 9})
	sw.End()
	n, err := sw.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if int(n) != buf.Len() {
		t.Fatalf("Finish reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	raw := buildTestSnapshot(t)
	if !hasSnapshotMagic(raw) {
		t.Fatal("hasSnapshotMagic rejects a valid snapshot")
	}
	s, err := OpenSnapshotBytes(raw)
	if err != nil {
		t.Fatalf("OpenSnapshotBytes: %v", err)
	}
	if s.NumSections() != 2 {
		t.Fatalf("NumSections = %d, want 2", s.NumSections())
	}
	if k := s.Section(0).Kind; k != SectionManifest {
		t.Errorf("section 0 kind = %d", k)
	}
	d := NewSectionData(s.Section(0).Data)
	if v := d.Varint(); v != -42 {
		t.Errorf("Varint = %d", v)
	}
	if v := d.Uvarint(); v != 7 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.String(); v != "manifest" {
		t.Errorf("String = %q", v)
	}
	if v := d.U64(); v != 0xdeadbeef {
		t.Errorf("U64 = %#x", v)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("manifest read: %v", err)
	}

	d = NewSectionData(s.Section(1).Data)
	if v := d.U32(); v != 3 {
		t.Errorf("U32 = %d", v)
	}
	i32 := d.I32s(3)
	if len(i32) != 3 || i32[0] != -1 || i32[2] != 1 {
		t.Errorf("I32s = %v", i32)
	}
	offs := d.PrefixOffsets(2, 3)
	if len(offs) != 3 || offs[1] != 2 {
		t.Errorf("PrefixOffsets = %v (err %v)", offs, d.Err())
	}
	d.Align(8)
	u64 := d.U64s(2)
	if len(u64) != 2 || u64[0] != 1<<40 {
		t.Errorf("U64s = %v", u64)
	}
	if b := d.Bytes(2); !bytes.Equal(b, []byte{9, 9}) {
		t.Errorf("Bytes = %v", b)
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d", d.Remaining())
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotUnalignedInputIsCopied(t *testing.T) {
	raw := buildTestSnapshot(t)
	// Force a misaligned backing array; OpenSnapshotBytes must realign so
	// the zero-copy views hold.
	backing := make([]byte, len(raw)+1)
	copy(backing[1:], raw)
	s, err := OpenSnapshotBytes(backing[1:])
	if err != nil {
		t.Fatalf("OpenSnapshotBytes(unaligned): %v", err)
	}
	d := NewSectionData(s.Section(1).Data)
	d.U32()
	if v := d.I32s(3); v[1] != 0 {
		t.Errorf("I32s over realigned copy = %v", v)
	}
}

func TestSnapshotFileMmap(t *testing.T) {
	raw := buildTestSnapshot(t)
	path := filepath.Join(t.TempDir(), "snap.flix")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, useMmap := range []bool{false, true} {
		s, err := OpenSnapshotFile(path, useMmap)
		if err != nil {
			t.Fatalf("OpenSnapshotFile(mmap=%v): %v", useMmap, err)
		}
		if s.Size() != int64(len(raw)) {
			t.Errorf("Size = %d, want %d", s.Size(), len(raw))
		}
		if s.NumSections() != 2 {
			t.Errorf("NumSections = %d", s.NumSections())
		}
		if !useMmap && s.Mapped() {
			t.Error("Mapped() true without mmap requested")
		}
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
	}
}

// TestSnapshotEqual: a file and an in-memory copy of its image, mapped or
// read, are equal; an image with one payload byte changed and resealed is
// not, nor is a shorter one.
func TestSnapshotEqual(t *testing.T) {
	raw := buildTestSnapshot(t)
	path := filepath.Join(t.TempDir(), "snap.flix")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenSnapshotFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	inMem, err := OpenSnapshotBytes(bytes.Clone(raw))
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Clone(raw)
	edited[inMem.Section(1).Off] ^= 1
	if err := Reseal(edited); err != nil {
		t.Fatal(err)
	}
	other, err := OpenSnapshotBytes(edited)
	if err != nil {
		t.Fatal(err)
	}
	var sw bytes.Buffer
	w := NewSnapshotWriter(&sw)
	w.Begin(SectionManifest)
	w.End()
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	short, err := OpenSnapshotBytes(sw.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Equal(inMem) || !inMem.Equal(mapped) || !inMem.Equal(inMem) {
		t.Error("one image, mapped and in memory, compares unequal")
	}
	if inMem.Equal(other) || other.Equal(mapped) || inMem.Equal(short) {
		t.Error("images that differ compare equal")
	}
}

func TestSnapshotTruncations(t *testing.T) {
	raw := buildTestSnapshot(t)
	for n := 0; n < len(raw); n++ {
		if _, err := OpenSnapshotBytes(raw[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestSnapshotEveryBitFlip(t *testing.T) {
	raw := buildTestSnapshot(t)
	for i := range raw {
		bad := bytes.Clone(raw)
		bad[i] ^= 1 << uint(i%8)
		_, err := OpenSnapshotBytes(bad)
		if err == nil {
			t.Fatalf("flip of byte %d accepted", i)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("flip of byte %d: untyped error %v", i, err)
		}
	}
}

func TestSnapshotFutureVersionTyped(t *testing.T) {
	raw := bytes.Clone(buildTestSnapshot(t))
	binary.LittleEndian.PutUint32(raw[8:12], SnapshotVersion+1)
	if err := Reseal(raw); err != nil {
		t.Fatal(err)
	}
	_, err := OpenSnapshotBytes(raw)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("v%d snapshot: err = %v, want ErrVersion", SnapshotVersion+1, err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("version refusal should not read as corruption: %v", err)
	}
}

// TestSnapshotChecksumKnownAnswer pins the footer checksum: CRC-32C in the
// high half and CRC-32/IEEE in the low half, each the standard CRC (its check
// value over "123456789" is the catalogued one), of every byte before the
// checksum field; a writer's footer and Reseal's agree on it.
func TestSnapshotChecksumKnownAnswer(t *testing.T) {
	if got, want := snapshotChecksum([]byte("123456789")), uint64(0xe3069283_cbf43926); got != want {
		t.Fatalf("checksum of the CRC check string = %#x, want %#x", got, want)
	}
	raw := buildTestSnapshot(t)
	body := raw[:len(raw)-16]
	want := uint64(crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))<<32 | uint64(crc32.ChecksumIEEE(body))
	if got := binary.LittleEndian.Uint64(raw[len(raw)-16:]); got != want {
		t.Fatalf("footer checksum = %#x, want crc32c<<32 | crc32ieee = %#x", got, want)
	}
	resealed := bytes.Clone(raw)
	clear(resealed[len(raw)-16 : len(raw)-8])
	if err := Reseal(resealed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resealed, raw) {
		t.Fatalf("Reseal wrote %#x, the writer %#x",
			binary.LittleEndian.Uint64(resealed[len(raw)-16:]), want)
	}
}

// TestSnapshotOldVersions: a version 2 image — the same layout under a
// CRC-64 footer — and a version 3 one are refused as a version problem, a
// version below 2 as corruption; either way whatever its checksum.
func TestSnapshotOldVersions(t *testing.T) {
	for v, want := range map[uint32]error{0: ErrCorrupt, 1: ErrCorrupt, 2: ErrVersion, 3: ErrVersion} {
		raw := bytes.Clone(buildTestSnapshot(t))
		binary.LittleEndian.PutUint32(raw[8:12], v)
		if err := Reseal(raw); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSnapshotBytes(raw)
		if !errors.Is(err, want) {
			t.Errorf("v%d snapshot: err = %v, want %v", v, err, want)
		}
		if want == ErrVersion && errors.Is(err, ErrCorrupt) {
			t.Errorf("v%d snapshot: version refusal reads as corruption: %v", v, err)
		}
	}
}

func TestSnapshotForgedSectionBounds(t *testing.T) {
	raw := buildTestSnapshot(t)
	s, err := OpenSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the table: it sits right before the footer.
	tableOff := len(raw) - snapshotFooterSize - s.NumSections()*sectionEntrySize
	for _, forge := range []struct {
		name string
		off  uint64
		len  uint64
	}{
		{"offset past table", uint64(tableOff + 8), 16},
		{"misaligned offset", 33, 8},
		{"length past table", snapshotHeaderSize, uint64(len(raw))},
		{"offset into header", 8, 16},
	} {
		bad := bytes.Clone(raw)
		binary.LittleEndian.PutUint64(bad[tableOff:], forge.off)
		binary.LittleEndian.PutUint64(bad[tableOff+8:], forge.len)
		if err := Reseal(bad); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSnapshotBytes(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", forge.name, err)
		}
	}
}

func TestCursorDecodesAndTerminates(t *testing.T) {
	var blob []byte
	blob = binary.AppendUvarint(blob, 300)
	blob = binary.AppendUvarint(blob, 5)
	c := Cursor{B: blob}
	for _, want := range []uint64{300, 5} {
		if v, ok := c.Uvarint(); !ok || v != want {
			t.Fatalf("Uvarint = %d, %v; want %d", v, ok, want)
		}
	}
	if _, ok := c.Uvarint(); ok {
		t.Fatal("Uvarint past end reported ok")
	}
	// A truncated varint must read as stream end, not loop or panic.
	c = Cursor{B: []byte{0x80, 0x80}}
	if _, ok := c.Uvarint(); ok {
		t.Fatal("truncated uvarint reported ok")
	}
	if c.Pos != len(c.B) {
		t.Fatalf("cursor not pinned to end: %d", c.Pos)
	}
}

func TestSectionDataPoisoning(t *testing.T) {
	d := NewSectionData([]byte{1, 2})
	if d.U64(); d.Err() == nil {
		t.Fatal("U64 over 2 bytes did not error")
	}
	// Poisoned readers return zero values, never panic.
	if v := d.U32(); v != 0 {
		t.Errorf("poisoned U32 = %d", v)
	}
	if v := d.I32s(4); v != nil {
		t.Errorf("poisoned I32s = %v", v)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("poison error = %v, want ErrCorrupt", d.Err())
	}
}

func TestPrefixOffsetsRejectsNonMonotonic(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSnapshotWriter(&buf)
	sw.Begin(SectionPPO)
	sw.U32s([]uint32{0, 5, 3, 9})
	sw.End()
	if _, err := sw.Finish(); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSnapshotBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d := NewSectionData(s.Section(0).Data)
	if offs := d.PrefixOffsets(3, 9); offs != nil || d.Err() == nil {
		t.Fatalf("non-monotonic prefix table accepted: %v", offs)
	}
}
