package storage

// The v2 snapshot container: an offset-based, checksummed, mmap-able file
// format — the only one FliX persists or opens.  Unlike the canonical varint
// stream (WriteStream, which is only measured), a v2 snapshot is designed to be
// served without a parse step: the file is a header, a sequence of 8-byte-aligned payload sections, a section table of
// (kind, offset, length) entries, and a footer carrying a whole-file 64-bit
// checksum.
// Opening a snapshot validates the envelope and the checksum — one
// sequential pass that decodes nothing and allocates only the section
// descriptors — after which fixed-width arrays inside sections are used in
// place via unsafe views.  The one exception is the hopi section, whose
// varint runs its opener decodes into heap arrays.
//
//	offset 0          header (32 B): magic "FLIXSNP2", version u32,
//	                  byte-order mark u32, 16 B reserved
//	8-aligned         payload sections, each 8-aligned, back to back
//	tableOff          section table: count × 24 B {off u64, len u64,
//	                  kind u32, pad u32}
//	len(file)-40      footer: tableOff u64, count u64, fileLen u64,
//	                  checksum u64, end magic "2PNSXILF"
//
// The checksum covers every byte before its own field, so any single-bit
// flip anywhere in the file — header, table, payload or footer — fails Open
// with ErrCorrupt before a single probe can run.  It is a CRC pair:
// CRC-32C (Castagnoli) in the high half, CRC-32/IEEE in the low half, both
// computed by hash/crc32 with the hardware CRC instructions of amd64 and
// arm64.  The pair is still a 64-bit check: the two generator polynomials
// are coprime, so damage passes both CRCs only when it is a multiple of
// their product, a degree-64 polynomial — the pair acts as one CRC-64 with
// that generator, and every single-bit flip and every burst of up to 64
// bits is caught.  Container version 2 had the same layout under a pure-Go
// CRC-64/ECMA, about seven times the CPU; its images are refused with
// ErrVersion.  ("v2" names the container — magic "FLIXSNP2" — not its
// header version.)
// All multi-byte values are little-endian; the byte-order mark refuses the
// (theoretical) big-endian host rather than serving garbage through the
// zero-copy views.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/csr"
)

// SnapshotMagic opens every v2 snapshot file.  It shares the "FLIX" prefix
// with the canonical stream but differs from byte 4 on (the stream continues
// with the uvarint-length-prefixed kind string), so a stream handed to Open
// fails the magic check with ErrCorrupt.
const SnapshotMagic = "FLIXSNP2"

// snapshotEndMagic closes the file; a cheap truncation tripwire that fails
// before the checksum is even computed.
const snapshotEndMagic = "2PNSXILF"

// SnapshotVersion is the container format version stamped in the header.
// Open refuses every other version: a newer one, version 3 — whose HOPI
// sections could be raw (kind 3) — or version 2 — the same layout under a
// CRC-64/ECMA footer — with ErrVersion, and one below 2 as corrupt.
const SnapshotVersion = 4

// snapshotCRC64Version is the last container version whose footer held a
// CRC-64/ECMA.
const snapshotCRC64Version = 2

// snapshotBOM is the little-endian byte-order mark stored in the header.
const snapshotBOM uint32 = 0x01020304

const (
	snapshotHeaderSize = 32
	snapshotFooterSize = 40
	sectionEntrySize   = 24
	maxSections        = 1 << 26
)

// ErrCorrupt reports a v2 snapshot that failed structural validation or
// its checksum.  Every corruption path (truncation, bit flip, forged
// offsets) surfaces as an error wrapping ErrCorrupt — never a panic and
// never silently wrong results.
var ErrCorrupt = errors.New("storage: snapshot corrupt")

// ErrVersion reports a snapshot written by another container version than
// this binary reads: a newer one, version 3, whose HOPI sections could be
// raw, or version 2, whose CRC-64 footer it no longer checks.
var ErrVersion = errors.New("storage: snapshot format version not supported")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcPair is the running footer checksum: CRC-32C and CRC-32/IEEE of the
// same bytes.
type crcPair struct{ c, ieee uint32 }

func (p *crcPair) update(b []byte) {
	p.c = crc32.Update(p.c, castagnoli, b)
	p.ieee = crc32.Update(p.ieee, crc32.IEEETable, b)
}

// sum64 is the footer's checksum field: CRC-32C high, CRC-32/IEEE low.
func (p crcPair) sum64() uint64 { return uint64(p.c)<<32 | uint64(p.ieee) }

// snapshotChecksum is the footer checksum of the image bytes before it.
func snapshotChecksum(b []byte) uint64 {
	var p crcPair
	p.update(b)
	return p.sum64()
}

// hostLittleEndian is computed once; the zero-copy views reinterpret
// little-endian file bytes in place, so a big-endian host must refuse.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// hasSnapshotMagic reports whether b begins like a v2 snapshot.
func hasSnapshotMagic(b []byte) bool {
	return len(b) >= len(SnapshotMagic) && string(b[:len(SnapshotMagic)]) == SnapshotMagic
}

// SnapshotWriter streams a v2 snapshot onto an io.Writer: header first,
// then Begin/End-bracketed sections, then Finish emits the section table
// and checksummed footer.  All errors accumulate; check Finish's return.
// A detached writer (EncodeSectionBody, WriteStream) writes bare bytes: no
// header, no checksum.
type SnapshotWriter struct {
	w        io.Writer
	crc      *crcPair // nil when detached
	off      int64
	err      error
	sections []sectionEntry
	open     bool
	buf      [4096]byte
	vbuf     [binary.MaxVarintLen64]byte
}

type sectionEntry struct {
	off, length int64
	kind        uint32
}

// NewSnapshotWriter starts a snapshot on w by writing the header.
func NewSnapshotWriter(w io.Writer) *SnapshotWriter {
	sw := &SnapshotWriter{w: w, crc: &crcPair{}}
	var hdr [snapshotHeaderSize]byte
	copy(hdr[0:8], SnapshotMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], SnapshotVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], snapshotBOM)
	sw.write(hdr[:])
	return sw
}

// EncodeSectionBody runs enc against a detached writer and returns the
// bytes it produced, exactly as they would appear inside a section (the
// detached offset starts at 0, and real section bodies start 8-aligned, so
// the encoder's Align calls agree).  The compressing snapshot writer uses
// it to encode a section in both the raw and the compressed form and keep
// whichever pays.
func EncodeSectionBody(enc func(*SnapshotWriter)) ([]byte, error) {
	var buf bytes.Buffer
	sw := &SnapshotWriter{w: &buf}
	enc(sw)
	return buf.Bytes(), sw.err
}

// write appends hashed bytes.
func (sw *SnapshotWriter) write(b []byte) {
	if sw.err != nil {
		return
	}
	if sw.crc != nil {
		sw.crc.update(b)
	}
	if _, err := sw.w.Write(b); err != nil {
		sw.err = err
		return
	}
	sw.off += int64(len(b))
}

var zeroPad [8]byte

// Align pads with zero bytes to the next multiple of n (a power of two).
func (sw *SnapshotWriter) Align(n int64) {
	if pad := (n - sw.off%n) % n; pad > 0 {
		sw.write(zeroPad[:pad])
	}
}

// Begin opens a new section of the given kind at the next 8-byte boundary.
func (sw *SnapshotWriter) Begin(kind uint32) {
	if sw.open {
		sw.fail("Begin inside an open section")
		return
	}
	sw.Align(8)
	sw.sections = append(sw.sections, sectionEntry{off: sw.off, kind: kind})
	sw.open = true
}

// End closes the current section.
func (sw *SnapshotWriter) End() {
	if !sw.open {
		sw.fail("End without Begin")
		return
	}
	s := &sw.sections[len(sw.sections)-1]
	s.length = sw.off - s.off
	sw.open = false
}

func (sw *SnapshotWriter) fail(msg string) {
	if sw.err == nil {
		sw.err = fmt.Errorf("storage: snapshot writer: %s", msg)
	}
}

// Raw writes bytes verbatim.
func (sw *SnapshotWriter) Raw(b []byte) { sw.write(b) }

// U32 writes a fixed-width little-endian uint32.
func (sw *SnapshotWriter) U32(v uint32) {
	binary.LittleEndian.PutUint32(sw.vbuf[:4], v)
	sw.write(sw.vbuf[:4])
}

// U64 writes a fixed-width little-endian uint64.
func (sw *SnapshotWriter) U64(v uint64) {
	binary.LittleEndian.PutUint64(sw.vbuf[:8], v)
	sw.write(sw.vbuf[:8])
}

// Uvarint writes an unsigned varint.
func (sw *SnapshotWriter) Uvarint(v uint64) {
	n := binary.PutUvarint(sw.vbuf[:], v)
	sw.write(sw.vbuf[:n])
}

// Varint writes a signed (zig-zag) varint.
func (sw *SnapshotWriter) Varint(v int64) {
	n := binary.PutVarint(sw.vbuf[:], v)
	sw.write(sw.vbuf[:n])
}

// String writes a length-prefixed string.
func (sw *SnapshotWriter) String(s string) {
	sw.Uvarint(uint64(len(s)))
	sw.write([]byte(s))
}

// I32s writes a fixed-width little-endian int32 array (no length prefix;
// the layout carries counts separately so readers can view arrays in
// place).
func (sw *SnapshotWriter) I32s(s []int32) {
	b := sw.buf[:]
	j := 0
	for _, v := range s {
		binary.LittleEndian.PutUint32(b[j:], uint32(v))
		j += 4
		if j == len(b) {
			sw.write(b)
			j = 0
		}
	}
	sw.write(b[:j])
}

// U32s writes a fixed-width little-endian uint32 array.
func (sw *SnapshotWriter) U32s(s []uint32) {
	b := sw.buf[:]
	j := 0
	for _, v := range s {
		binary.LittleEndian.PutUint32(b[j:], v)
		j += 4
		if j == len(b) {
			sw.write(b)
			j = 0
		}
	}
	sw.write(b[:j])
}

// Rows32 writes int32 rows as their offset table and then their values, the
// layout SectionData.Rows32 views.
func (sw *SnapshotWriter) Rows32(r csr.Rows[int32]) {
	sw.U32s(r.Off)
	sw.I32s(r.Data)
}

// U64s writes a fixed-width little-endian uint64 array.
func (sw *SnapshotWriter) U64s(s []uint64) {
	b := sw.buf[:]
	j := 0
	for _, v := range s {
		binary.LittleEndian.PutUint64(b[j:], v)
		j += 8
		if j == len(b) {
			sw.write(b)
			j = 0
		}
	}
	sw.write(b[:j])
}

// Finish writes the section table and footer and returns the total byte
// count.
func (sw *SnapshotWriter) Finish() (int64, error) {
	if sw.open {
		sw.fail("Finish with an open section")
	}
	sw.Align(8)
	tableOff := sw.off
	for _, s := range sw.sections {
		sw.U64(uint64(s.off))
		sw.U64(uint64(s.length))
		sw.U32(s.kind)
		sw.U32(0)
	}
	fileLen := sw.off + snapshotFooterSize
	sw.U64(uint64(tableOff))
	sw.U64(uint64(len(sw.sections)))
	sw.U64(uint64(fileLen))
	if sw.err != nil {
		return sw.off, sw.err
	}
	// The crc field and end magic are outside the checksummed region.
	var tail [16]byte
	binary.LittleEndian.PutUint64(tail[0:8], sw.crc.sum64())
	copy(tail[8:16], snapshotEndMagic)
	if _, err := sw.w.Write(tail[:]); err != nil {
		sw.err = err
		return sw.off, err
	}
	sw.off += 16
	return sw.off, nil
}

// Section is one validated payload section of an open snapshot.
type Section struct {
	// Kind tags the decoder (Section* constants).
	Kind uint32
	// Off is the section's byte offset within the snapshot file.
	Off int64
	// Data aliases the snapshot's bytes; it is read-only (writes to a
	// mapped snapshot fault) and valid until the snapshot is closed.
	Data []byte
}

// Snapshot is an open, validated v2 snapshot.  Its sections alias one
// contiguous byte region — an mmap'd file or an in-memory buffer.
type Snapshot struct {
	data     []byte
	mapped   bool
	closed   atomic.Bool
	sections []Section
}

// OpenSnapshotBytes validates b as a v2 snapshot and returns it without
// copying (unless b is not 8-byte aligned, in which case a private aligned
// copy is made so the zero-copy views hold).  The caller must not mutate b
// while the snapshot is in use.
func OpenSnapshotBytes(b []byte) (*Snapshot, error) {
	if len(b) > 0 && uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		c := make([]byte, len(b))
		copy(c, b)
		b = c
	}
	s := &Snapshot{data: b}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenSnapshotFile opens and validates a v2 snapshot file.  With useMmap
// the file is mapped read-only and served zero-copy (falling back to a
// plain read when the platform cannot map); otherwise it is read into
// memory.  The returned snapshot owns the mapping; Close releases it, and
// a finalizer releases it when the snapshot is garbage collected.  What
// that guarantees is reachability and nothing more: the bytes stay mapped
// while the *Snapshot (in practice the flix.Index holding it) is reachable.
// A Section.Data view, or anything decoded to alias it, does not keep the
// snapshot reachable — code reading through such a view must hold the
// owner for as long as it reads (runtime.KeepAlive where the owner's last
// use would otherwise come first).  A retired generation pinned by
// in-flight queries stays valid because every query holds its Index.
func OpenSnapshotFile(path string, useMmap bool) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	var data []byte
	mapped := false
	if useMmap && size > 0 {
		data, mapped, _ = mmapFile(f, size)
	}
	if !mapped {
		data = make([]byte, size)
		if _, err := io.ReadFull(f, data); err != nil {
			return nil, err
		}
	}
	s := &Snapshot{data: data, mapped: mapped}
	if err := s.validate(); err != nil {
		s.Close()
		return nil, err
	}
	if mapped {
		runtime.SetFinalizer(s, (*Snapshot).Close)
	}
	return s, nil
}

func (s *Snapshot) validate() error {
	b := s.data
	if !hostLittleEndian {
		return fmt.Errorf("%w: big-endian hosts cannot serve little-endian snapshots", ErrVersion)
	}
	if len(b) < snapshotHeaderSize+snapshotFooterSize {
		return fmt.Errorf("%w: %d bytes is shorter than header+footer", ErrCorrupt, len(b))
	}
	if !hasSnapshotMagic(b) {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != SnapshotVersion {
		if v >= snapshotCRC64Version {
			return fmt.Errorf("%w: snapshot is v%d, this binary reads v%d", ErrVersion, v, SnapshotVersion)
		}
		return fmt.Errorf("%w: impossible container version %d", ErrCorrupt, v)
	}
	if bom := binary.LittleEndian.Uint32(b[12:16]); bom != snapshotBOM {
		return fmt.Errorf("%w: byte-order mark %#x", ErrCorrupt, bom)
	}
	foot := b[len(b)-snapshotFooterSize:]
	if string(foot[32:40]) != snapshotEndMagic {
		return fmt.Errorf("%w: bad end magic (truncated?)", ErrCorrupt)
	}
	if fl := binary.LittleEndian.Uint64(foot[16:24]); fl != uint64(len(b)) {
		return fmt.Errorf("%w: footer says %d bytes, file has %d", ErrCorrupt, fl, len(b))
	}
	want := binary.LittleEndian.Uint64(foot[24:32])
	if got := snapshotChecksum(b[:len(b)-16]); got != want {
		return fmt.Errorf("%w: checksum mismatch (%#x != %#x)", ErrCorrupt, got, want)
	}
	tableOff := binary.LittleEndian.Uint64(foot[0:8])
	count := binary.LittleEndian.Uint64(foot[8:16])
	if count > maxSections {
		return fmt.Errorf("%w: unreasonable section count %d", ErrCorrupt, count)
	}
	tableEnd := int64(len(b)) - snapshotFooterSize
	if tableOff%8 != 0 || int64(tableOff) < snapshotHeaderSize ||
		int64(tableOff)+int64(count)*sectionEntrySize != tableEnd {
		return fmt.Errorf("%w: section table [%d, %d×%d] does not fit", ErrCorrupt, tableOff, count, sectionEntrySize)
	}
	s.sections = make([]Section, count)
	for i := range s.sections {
		e := b[int64(tableOff)+int64(i)*sectionEntrySize:]
		off := binary.LittleEndian.Uint64(e[0:8])
		length := binary.LittleEndian.Uint64(e[8:16])
		kind := binary.LittleEndian.Uint32(e[16:20])
		if off%8 != 0 || int64(off) < snapshotHeaderSize || length > uint64(tableOff) ||
			int64(off) > int64(tableOff)-int64(length) {
			return fmt.Errorf("%w: section %d [%d+%d] out of bounds", ErrCorrupt, i, off, length)
		}
		s.sections[i] = Section{Kind: kind, Off: int64(off), Data: b[off : off+length : off+length]}
	}
	return nil
}

// NumSections returns the number of payload sections.
func (s *Snapshot) NumSections() int { return len(s.sections) }

// Section returns the i-th payload section.
func (s *Snapshot) Section(i int) Section { return s.sections[i] }

// Mapped reports whether the snapshot is memory-mapped (as opposed to read
// into the heap).
func (s *Snapshot) Mapped() bool { return s.mapped }

// Size returns the snapshot's total byte count.
func (s *Snapshot) Size() int64 { return int64(len(s.data)) }

// Equal reports whether s and o hold byte-identical images.
func (s *Snapshot) Equal(o *Snapshot) bool {
	// The comparison reads through slices of the mappings, which stay
	// mapped only while their owners are reachable.
	defer runtime.KeepAlive(o)
	defer runtime.KeepAlive(s)
	return bytes.Equal(s.data, o.data)
}

// Close releases the mapping.  It is idempotent; the caller must guarantee
// no section view is dereferenced afterwards.
func (s *Snapshot) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.mapped {
		runtime.SetFinalizer(s, nil)
		data := s.data
		s.data, s.sections = nil, nil
		return munmapBytes(data)
	}
	s.data, s.sections = nil, nil
	return nil
}

// Reseal recomputes the footer checksum of a snapshot image in place.
// It exists for tests and tooling that deliberately edit snapshot bytes
// (e.g. stamping a future version) and want only the edited field — not
// the checksum — to trip validation.
func Reseal(b []byte) error {
	if len(b) < snapshotHeaderSize+snapshotFooterSize || !hasSnapshotMagic(b) {
		return fmt.Errorf("%w: not a v2 snapshot image", ErrCorrupt)
	}
	binary.LittleEndian.PutUint64(b[len(b)-16:], snapshotChecksum(b[:len(b)-16]))
	return nil
}

// SectionData reads a section body sequentially: fixed-width scalars and
// zero-copy array views over the underlying bytes.  All accesses are
// bounds-checked; the first failure poisons the reader (Err) and
// subsequent reads return zero values — decoders validate once at open
// time, not per probe.
type SectionData struct {
	b   []byte
	off int
	err error
	// dirs is what is left of the ReservePacked reservation.
	dirs []packedDir
}

// NewSectionData returns a reader over a section body.
func NewSectionData(b []byte) *SectionData { return &SectionData{b: b} }

func (d *SectionData) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// Err returns the first error encountered.
func (d *SectionData) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *SectionData) Remaining() int { return len(d.b) - d.off }

// Align skips to the next multiple of n within the section (sections are
// 8-aligned in the file, so section-relative alignment is absolute).
func (d *SectionData) Align(n int) {
	if pad := (n - d.off%n) % n; pad > 0 {
		d.Bytes(pad)
	}
}

// Bytes consumes n raw bytes and returns them without copying.
func (d *SectionData) Bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail("section read of %d bytes at %d overruns %d", n, d.off, len(d.b))
		return nil
	}
	out := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return out
}

// U32 reads a fixed-width little-endian uint32.
func (d *SectionData) U32() uint32 {
	b := d.Bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed-width little-endian uint64.
func (d *SectionData) U64() uint64 {
	b := d.Bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uvarint reads an unsigned varint.
func (d *SectionData) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *SectionData) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// String reads a length-prefixed string (copying; strings are tiny
// manifest fields, not payload).
func (d *SectionData) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > 1<<20 {
		d.fail("unreasonable string length %d", n)
		return ""
	}
	return string(d.Bytes(int(n)))
}

// I32s consumes an n-element fixed-width int32 array and returns a
// zero-copy view of it.
func (d *SectionData) I32s(n int) []int32 {
	d.Align(4)
	b := d.Bytes(n * 4)
	if b == nil || n == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
}

// U32s consumes an n-element fixed-width uint32 array as a zero-copy view.
func (d *SectionData) U32s(n int) []uint32 {
	d.Align(4)
	b := d.Bytes(n * 4)
	if b == nil || n == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}

// U64s consumes an n-element fixed-width uint64 array as a zero-copy view.
func (d *SectionData) U64s(n int) []uint64 {
	d.Align(8)
	b := d.Bytes(n * 8)
	if b == nil || n == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
}

// PrefixOffsets consumes an (n+1)-element u32 prefix-offset table and
// validates that it is monotonically non-decreasing and ends at end — the
// one open-time scan that lets every later per-probe slice skip its bounds
// re-checks.
func (d *SectionData) PrefixOffsets(n int, end uint32) []uint32 {
	offs := d.U32s(n + 1)
	if d.err != nil {
		return nil
	}
	if offs[0] != 0 || offs[n] != end {
		d.fail("prefix table spans [%d, %d], want [0, %d]", offs[0], offs[n], end)
		return nil
	}
	for i := 0; i < n; i++ {
		if offs[i] > offs[i+1] {
			d.fail("prefix table not monotonic at %d", i)
			return nil
		}
	}
	return offs
}

// Rows32 consumes n int32 rows holding total values, as Rows32 writes them,
// and returns a view of both arrays; the offset table is validated like
// PrefixOffsets, so no Row of the view can slice out of bounds.
func (d *SectionData) Rows32(n, total int) csr.Rows[int32] {
	off := d.PrefixOffsets(n, uint32(total))
	data := d.I32s(total)
	if d.err != nil {
		return csr.Rows[int32]{}
	}
	return csr.Rows[int32]{Off: off, Data: data}
}

// Cursor decodes a varint run from a byte slice without allocating.  A
// decode failure (possible only on forged input that also forged the file
// checksum) reports !ok and moves the cursor to the end of the run.
type Cursor struct {
	B   []byte
	Pos int
}

// Uvarint decodes the next unsigned varint; ok is false at stream end.
func (c *Cursor) Uvarint() (uint64, bool) {
	v, n := binary.Uvarint(c.B[c.Pos:])
	if n <= 0 {
		c.Pos = len(c.B)
		return 0, false
	}
	c.Pos += n
	return v, true
}
