package storage

// Frame-of-Reference bit-packed int32 arrays — the succinct building block
// of the compressed v2 section encodings (SectionPPOC, and SectionHOPIC's
// offset tables).
//
// Values are split into blocks of 64.  Each block stores its minimum (the
// frame base, a plain int32) plus the per-value deltas bit-packed at the
// block's width: the smallest number of bits that holds the block's
// max-min range.  64 values at width w occupy exactly 8·w bytes, so block
// payloads are byte-aligned by construction and a value is extracted with
// one unaligned 8-byte load, a shift and a mask — O(1), no decode step, no
// scratch.  The per-block (base, width) directory doubles as a block-skip
// index: point probes and binary searches touch only the blocks they land
// in, never the whole array.  Whole-array passes — open-time validation —
// decode a block at a time instead (Block): one directory read, then the
// block's 8·w payload bytes in order.
//
// Wire layout (inside a section, read with SectionData):
//
//	u32 count                      number of logical values
//	u32 dataLen                    payload byte count (incl. 8 tail pad)
//	bases  []int32 × nBlocks       per-block frame base (4-aligned)
//	widths []u8    × nBlocks       per-block bit width (0..32)
//	data   []byte  × dataLen       8·width bytes per block, then 8 zero
//	                               bytes so the last extraction's 8-byte
//	                               load stays in bounds
//
// Byte offsets per block are not stored — the reader rebuilds them from
// the widths in one open-time pass into a consolidated per-block directory
// (the only allocation, shared by a section's arrays through ReservePacked:
// base, byte offset and width side by side, so an At touches one directory
// cache line plus the value's own 8 bytes), validating that the offsets
// land exactly on dataLen-8 so no At or Block call can read out of bounds.
// Block decodes a group of eight values — exactly w bytes — with one 8-byte
// load at widths up to 8 and two up to 16.

import (
	"encoding/binary"
	"math/bits"
	"unsafe"

	"repro/internal/csr"
)

// packedBlockShift sets the block size: 64 values per block makes a
// block's payload exactly 8·width bytes.
const packedBlockShift = 6

const packedBlock = 1 << packedBlockShift

// packedDir is one block's directory entry: frame base, payload byte
// offset and bit width, packed into 12 bytes so an At touches a single
// directory cache line.
type packedDir struct {
	off   uint32
	base  int32
	width uint32
}

// PackedI32 is a read-only view of a bit-packed int32 array inside a
// snapshot section.  The zero value is an empty array.
type PackedI32 struct {
	n    int32
	dir  []packedDir
	data []byte // zero-copy section view
}

// Len returns the number of values.
func (p *PackedI32) Len() int { return int(p.n) }

// At returns the i-th value.  i must be in [0, Len()).
func (p *PackedI32) At(i int32) int32 {
	d := &p.dir[uint32(i)>>packedBlockShift]
	w := d.width
	if w == 0 {
		return d.base
	}
	bit := (uint32(i) & (packedBlock - 1)) * w
	word := binary.LittleEndian.Uint64(p.data[d.off+bit>>3:])
	return int32(uint32(d.base) + uint32(word>>(bit&7)&(1<<w-1)))
}

// PackedBlock is the buffer Block decodes one block into.
type PackedBlock = [packedBlock]int32

// NumBlocks returns the number of blocks: block b holds the values from
// index b·64 on, 64 of them except in the last block.
func (p *PackedI32) NumBlocks() int { return len(p.dir) }

// Block decodes block b into dst and returns the decoded values — At(b·64)
// onwards, len(dst) of them except in the last block.  It reads the block's
// directory entry once and its payload in order, which is what a pass over
// the whole array wants; At looks the entry up again for every value.
func (p *PackedI32) Block(b int, dst *PackedBlock) []int32 {
	d := p.dir[b]
	out := dst[:min(packedBlock, int(p.n)-b<<packedBlockShift)]
	if d.width == 0 {
		for i := range out {
			out[i] = d.base
		}
		return out
	}
	w, base := d.width, uint32(d.base)
	mask := uint64(1)<<w - 1
	// The payload is 8·w bytes, and the next block's payload or the tail
	// pad follows it, so the last value's 8-byte load stays inside.
	data := p.data[d.off : d.off+8*w+8]
	// Eight values at width w fill exactly w bytes, so the k-th group of
	// eight starts on byte k·w.  Up to width 8 one load holds the whole
	// group; up to width 16 one load holds each half, the second half's
	// load starting on the byte that holds bit 4·w.
	i, bit := 0, uint32(0)
	switch {
	case w <= 8:
		for ; i+8 <= len(out); i += 8 {
			word := binary.LittleEndian.Uint64(data[bit>>3:])
			o := out[i : i+8 : i+8]
			o[0] = int32(base + uint32(word&mask))
			o[1] = int32(base + uint32(word>>w&mask))
			o[2] = int32(base + uint32(word>>(2*w)&mask))
			o[3] = int32(base + uint32(word>>(3*w)&mask))
			o[4] = int32(base + uint32(word>>(4*w)&mask))
			o[5] = int32(base + uint32(word>>(5*w)&mask))
			o[6] = int32(base + uint32(word>>(6*w)&mask))
			o[7] = int32(base + uint32(word>>(7*w)&mask))
			bit += 8 * w
		}
	case w <= 16:
		for ; i+8 <= len(out); i += 8 {
			lo := binary.LittleEndian.Uint64(data[bit>>3:])
			hi := binary.LittleEndian.Uint64(data[(bit+4*w)>>3:]) >> ((4 * w) & 7)
			o := out[i : i+8 : i+8]
			o[0] = int32(base + uint32(lo&mask))
			o[1] = int32(base + uint32(lo>>w&mask))
			o[2] = int32(base + uint32(lo>>(2*w)&mask))
			o[3] = int32(base + uint32(lo>>(3*w)&mask))
			o[4] = int32(base + uint32(hi&mask))
			o[5] = int32(base + uint32(hi>>w&mask))
			o[6] = int32(base + uint32(hi>>(2*w)&mask))
			o[7] = int32(base + uint32(hi>>(3*w)&mask))
			bit += 8 * w
		}
	}
	for ; i < len(out); i++ {
		word := binary.LittleEndian.Uint64(data[bit>>3:])
		out[i] = int32(base + uint32(word>>(bit&7)&mask))
		bit += w
	}
	return out
}

// BlockWithin reports that every value of block b lies in [lo, hi]: it
// passes a block only if they all do, and every block a writer made (its
// base the least value) whenever they all do.  A block passes when its base
// is in [lo, hi] and no delta exceeds hi-base, which holds at once when the
// width admits no larger delta.  Otherwise it loads the payload as Block
// does but stores nothing: each delta is tested by a subtraction whose sign
// bit it ORs into one word, so the test has no branch per value.
func (p *PackedI32) BlockWithin(b int, lo, hi int32) bool {
	d := p.dir[b]
	if d.base < lo || d.base > hi {
		return false
	}
	w := d.width
	mask := uint64(1)<<w - 1
	limit := uint64(int64(hi) - int64(d.base))
	if mask <= limit {
		return true // no delta of the width can pass hi
	}
	n := min(packedBlock, int(p.n)-b<<packedBlockShift)
	// A delta above limit turns limit-delta negative: its sign bit lands
	// in over.  Deltas are below 2^32, so the subtraction cannot wrap back.
	over := uint64(0)
	data := p.data[d.off : d.off+8*w+8]
	i, bit := 0, uint32(0)
	switch {
	case w <= 8:
		for ; i+8 <= n; i += 8 {
			word := binary.LittleEndian.Uint64(data[bit>>3:])
			over |= (limit - word&mask) | (limit - word>>w&mask) |
				(limit - word>>(2*w)&mask) | (limit - word>>(3*w)&mask) |
				(limit - word>>(4*w)&mask) | (limit - word>>(5*w)&mask) |
				(limit - word>>(6*w)&mask) | (limit - word>>(7*w)&mask)
			bit += 8 * w
		}
	case w <= 16:
		for ; i+8 <= n; i += 8 {
			word := binary.LittleEndian.Uint64(data[bit>>3:])
			half := binary.LittleEndian.Uint64(data[(bit+4*w)>>3:]) >> ((4 * w) & 7)
			over |= (limit - word&mask) | (limit - word>>w&mask) |
				(limit - word>>(2*w)&mask) | (limit - word>>(3*w)&mask) |
				(limit - half&mask) | (limit - half>>w&mask) |
				(limit - half>>(2*w)&mask) | (limit - half>>(3*w)&mask)
			bit += 8 * w
		}
	}
	for ; i < n; i++ {
		over |= limit - binary.LittleEndian.Uint64(data[bit>>3:])>>(bit&7)&mask
		bit += w
	}
	return over>>63 == 0
}

// FirstOutside returns the least index whose value lies outside [lo, hi],
// with that value, or (Len(), 0) when every value lies inside.  Only a
// block that BlockWithin does not pass is decoded and scanned value by
// value.
func (p *PackedI32) FirstOutside(lo, hi int32) (int, int32) {
	var buf PackedBlock
	for b := range p.dir {
		if p.BlockWithin(b, lo, hi) {
			continue
		}
		for j, v := range p.Block(b, &buf) {
			if v < lo || v > hi {
				return b<<packedBlockShift + j, v
			}
		}
	}
	return p.Len(), 0
}

// SearchGE returns the least index in [lo, hi) whose value is >= v,
// assuming the values in that range are ascending; hi when none is.
func (p *PackedI32) SearchGE(lo, hi, v int32) int32 {
	for lo < hi {
		m := int32(uint32(lo+hi) >> 1)
		if p.At(m) < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// PackedI32s writes vals in the frame-of-reference bit-packed layout.
func (sw *SnapshotWriter) PackedI32s(vals []int32) {
	nb := (len(vals) + packedBlock - 1) / packedBlock
	bases := make([]int32, nb)
	widths := make([]byte, nb)
	dataLen := 8 // tail pad
	for b := 0; b < nb; b++ {
		blk := vals[b*packedBlock : min((b+1)*packedBlock, len(vals))]
		lo, hi := blk[0], blk[0]
		for _, v := range blk[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		bases[b] = lo
		w := bits.Len32(uint32(hi) - uint32(lo))
		widths[b] = byte(w)
		dataLen += 8 * w
	}
	sw.U32(uint32(len(vals)))
	sw.U32(uint32(dataLen))
	// Writer-side alignment must mirror the reader's (sections are
	// 8-aligned in the file, so file and section alignment agree): I32s
	// aligns to 4 on read, and the payload is aligned to 8 so its end —
	// dataLen is a multiple of 8 — leaves the stream aligned for whatever
	// follows the array.
	sw.Align(4)
	sw.I32s(bases)
	sw.Raw(widths)
	sw.Align(8)
	// The pack buffer holds one block at max width plus the 8-byte slack
	// the word-wise OR below writes into.
	var buf [8*32 + 8]byte
	for b := 0; b < nb; b++ {
		w := uint32(widths[b])
		if w == 0 {
			continue
		}
		clear(buf[:8*w+8])
		base := uint32(bases[b])
		for i, v := range vals[b*packedBlock : min((b+1)*packedBlock, len(vals))] {
			bit := uint32(i) * w
			pos := bit >> 3
			word := binary.LittleEndian.Uint64(buf[pos:])
			binary.LittleEndian.PutUint64(buf[pos:], word|uint64(uint32(v)-base)<<(bit&7))
		}
		sw.Raw(buf[:8*w])
	}
	sw.Raw(zeroPad[:])
}

// PackedRows32 writes int32 rows packed: the offset table, then the values,
// each with PackedI32s.
func (sw *SnapshotWriter) PackedRows32(r csr.Rows[int32]) {
	sw.PackedI32s(unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(r.Off))), len(r.Off)))
	sw.PackedI32s(r.Data)
}

// PackedPrefixOffsets consumes a bit-packed prefix table of n+1 offsets —
// written with PackedI32s — and applies the same validation as
// PrefixOffsets: starts at 0, ends at end, monotonically nondecreasing.
// Prefix tables over a few thousand rows are where plain u32 tables waste
// the most (tag-run starts are small deltas but span the node range), so
// sections store them frame-of-reference packed like every other array.
func (d *SectionData) PackedPrefixOffsets(n int, end uint32) PackedI32 {
	offs := d.PackedI32s()
	if d.err != nil {
		return PackedI32{}
	}
	if offs.Len() != n+1 {
		d.fail("prefix table has %d entries, want %d", offs.Len(), n+1)
		return PackedI32{}
	}
	if first, last := offs.At(0), offs.At(int32(n)); first != 0 || uint32(last) != end {
		d.fail("prefix table spans [%d, %d], want [0, %d]", first, last, end)
		return PackedI32{}
	}
	prev := int32(0) // offs.At(0), checked above
	var buf PackedBlock
	for b := 0; b < offs.NumBlocks(); b++ {
		for j, v := range offs.Block(b, &buf) {
			if v < prev {
				d.fail("prefix table not monotonic at %d", b<<packedBlockShift+j-1)
				return PackedI32{}
			}
			prev = v
		}
	}
	return offs
}

// ReservePacked reserves, in one allocation, the block directories of the
// packed arrays the section holds next, given their value counts; each later
// PackedI32s cuts its directory from the reservation while it lasts and
// allocates its own once it does not.  A section of many small arrays thus
// pays one allocation for all of them.  The reservation is capped at one
// block per five unread bytes — what a block's directory entry occupies in
// the section — so forged counts cannot size it.
func (d *SectionData) ReservePacked(counts ...int) {
	nb := 0
	for _, n := range counts {
		nb += (max(n, 0) + packedBlock - 1) / packedBlock
	}
	d.dirs = make([]packedDir, min(nb, d.Remaining()/5))
}

// PackedI32s consumes a bit-packed array, validating the directory so that
// every later At stays in bounds: widths are capped at 32 and the
// width-derived block offsets must land exactly on the declared payload
// length (minus the tail pad).  Value-range validation is the caller's
// job, exactly as with the plain zero-copy array views.
func (d *SectionData) PackedI32s() PackedI32 {
	n := d.U32()
	dataLen := d.U32()
	if d.err != nil {
		return PackedI32{}
	}
	if n > 1<<31-1 {
		d.fail("packed array count %d overflows", n)
		return PackedI32{}
	}
	// A forged count cannot force a large allocation: the directory reads
	// below consume 5 bytes per declared block from the section itself, so
	// they fail on bounds before the directory is ever allocated.
	nb := (int(n) + packedBlock - 1) / packedBlock
	bases := d.I32s(nb)
	widths := d.Bytes(nb)
	d.Align(8)
	p := PackedI32{n: int32(n)}
	p.data = d.Bytes(int(dataLen))
	if d.err != nil {
		return PackedI32{}
	}
	if nb <= len(d.dirs) {
		p.dir, d.dirs = d.dirs[:nb:nb], d.dirs[nb:]
	} else {
		p.dir = make([]packedDir, nb)
	}
	off := uint32(0)
	for b, w := range widths {
		if w > 32 {
			d.fail("packed block width %d", w)
			return PackedI32{}
		}
		p.dir[b] = packedDir{off: off, base: bases[b], width: uint32(w)}
		off += 8 * uint32(w)
	}
	if off+8 != dataLen {
		d.fail("packed payload is %d bytes, directory spans %d", dataLen, off+8)
		return PackedI32{}
	}
	return p
}
