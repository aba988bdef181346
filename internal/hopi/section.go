package hopi

// v2 snapshot section codec (kind SectionHOPIC, "hopi-c"), the only one
// HOPI has.  HOPI's labels and postings dominate index size, so unlike
// ppo/apex/tc — whose sections are fixed-width arrays their index types
// alias in place — the section keeps them as delta-encoded varint runs
// behind bit-packed offset tables (storage.PackedI32: ascending offsets
// pack to a few bits each).  The tiny distance (or distance delta) rides in
// the low two bits of the hub (or zig-zag node) varint, with tag 3 escaping
// to an explicit extra uvarint: 2-hop label distances are almost always
// tiny, so most elements are one varint.  Opening a section decodes and
// validates every run into the heap Index a build produces (one offset
// table and one array per blob), so an opened generation probes through the
// same code, at the same speed, as a built one, and re-persists by
// re-encoding like one.
//
//	u32 n
//	u32 inLen, outLen, hubInLen, hubOutLen   (blob byte lengths)
//	packed inOff, outOff          n+1 values  byte offsets into the blobs
//	packed hubInOff, hubOutOff    n+1 values
//	in, out, hubIn, hubOut blobs              varint runs
//
// Label runs (in/out, hub-ascending):
//	uvarint(hubΔ<<2 | min(dist,3)) [uvarint(dist-3)]
// Posting runs (hubIn/hubOut, by (dist, node)):
//	uvarint(zigzag(nodeΔ)<<2 | min(distΔ,3)) [uvarint(distΔ-3)]

import (
	"encoding/binary"
	"fmt"

	"repro/internal/csr"
	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

// SectionKind implements storage.SectionEncoder.
func (idx *Index) SectionKind() uint32 { return storage.SectionHOPIC }

// EncodeSection implements storage.SectionEncoder.
func (idx *Index) EncodeSection(sw *storage.SnapshotWriter) {
	inOff, inB := encodeLabelRuns(idx.in)
	outOff, outB := encodeLabelRuns(idx.out)
	hubInOff, hubInB := encodePostingRuns(idx.hubIn)
	hubOutOff, hubOutB := encodePostingRuns(idx.hubOut)
	sw.U32(uint32(idx.in.Len()))
	sw.U32(uint32(len(inB)))
	sw.U32(uint32(len(outB)))
	sw.U32(uint32(len(hubInB)))
	sw.U32(uint32(len(hubOutB)))
	sw.PackedI32s(inOff)
	sw.PackedI32s(outOff)
	sw.PackedI32s(hubInOff)
	sw.PackedI32s(hubOutOff)
	sw.Raw(inB)
	sw.Raw(outB)
	sw.Raw(hubInB)
	sw.Raw(hubOutB)
}

// truncTag folds a non-negative value into a 2-bit tag with escape value 3.
func truncTag(v int32) uint64 {
	if v >= 3 {
		return 3
	}
	return uint64(v)
}

// encodeLabelRuns delta-encodes hub-sorted label slices: hub deltas are
// non-negative, so the folded value is a plain uvarint.
func encodeLabelRuns(labels csr.Rows[entry]) ([]int32, []byte) {
	offs := make([]int32, labels.Len()+1)
	var blob []byte
	for i := range int32(labels.Len()) {
		l := labels.Row(i)
		prev := int32(0)
		for _, e := range l {
			blob = binary.AppendUvarint(blob, uint64(e.hub-prev)<<2|truncTag(e.dist))
			if e.dist >= 3 {
				blob = binary.AppendUvarint(blob, uint64(e.dist-3))
			}
			prev = e.hub
		}
		offs[i+1] = int32(len(blob))
	}
	return offs, blob
}

// encodePostingRuns delta-encodes (dist, node)-sorted postings: distance
// deltas are non-negative, node deltas may regress and are zig-zagged.
func encodePostingRuns(postings csr.Rows[entry]) ([]int32, []byte) {
	offs := make([]int32, postings.Len()+1)
	var blob []byte
	for i := range int32(postings.Len()) {
		p := postings.Row(i)
		prevD, prevN := int32(0), int32(0)
		for _, e := range p {
			nd := int64(e.hub - prevN)
			zz := uint64(nd<<1 ^ nd>>63)
			dd := e.dist - prevD
			blob = binary.AppendUvarint(blob, zz<<2|truncTag(dd))
			if dd >= 3 {
				blob = binary.AppendUvarint(blob, uint64(dd-3))
			}
			prevD, prevN = e.dist, e.hub
		}
		offs[i+1] = int32(len(blob))
	}
	return offs, blob
}

// OpenSection decodes a section into an *Index over g.  Every run is
// validated (decodeRuns), so a forged section is rejected, never served.
func OpenSection(g *lgraph.LGraph, data []byte) (pathindex.Index, error) {
	d := storage.NewSectionData(data)
	n := int(d.U32())
	var lens [4]int
	for i := range lens {
		lens[i] = int(d.U32())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n != g.NumNodes() {
		return nil, fmt.Errorf("%w: hopi: section has %d nodes, graph %d", storage.ErrCorrupt, n, g.NumNodes())
	}
	var offs [4]storage.PackedI32
	for i := range offs {
		offs[i] = d.PackedPrefixOffsets(n, uint32(lens[i]))
	}
	var blobs [4][]byte
	for i := range blobs {
		blobs[i] = d.Bytes(lens[i])
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: hopi: %d bytes after the last run", storage.ErrCorrupt, d.Remaining())
	}
	idx := &Index{g: g}
	for i, dst := range [4]*csr.Rows[entry]{&idx.in, &idx.out, &idx.hubIn, &idx.hubOut} {
		runs, err := decodeRuns(offs[i], blobs[i], int32(n), i >= 2)
		if err != nil {
			return nil, err
		}
		*dst = runs
	}
	return idx, nil
}

// decodeRuns decodes one blob into n rows, whose array countEntries
// sizes.  A label run holds (hub, dist) with hubs strictly
// ascending; a posting run holds (node, dist) strictly ascending in (dist,
// node).  Every id and distance must lie in [0, n) — a shortest path has
// fewer than n edges — so the sum of two label distances cannot overflow at
// probe time.
func decodeRuns(off storage.PackedI32, blob []byte, n int32, postings bool) (csr.Rows[entry], error) {
	runs := csr.Rows[entry]{Off: make([]uint32, 1, n+1), Data: make([]entry, 0, countEntries(blob))}
	for x := int32(0); x < n; x++ {
		c := storage.Cursor{B: blob[off.At(x):off.At(x+1)]}
		start := len(runs.Data)
		var e, prev entry
		for c.Pos < len(c.B) {
			prev = e
			ok := false
			if postings {
				ok = nextPosting(&c, &e.dist, &e.hub)
			} else {
				e.hub, e.dist, ok = nextLabel(&c, &e.hub)
			}
			switch {
			case !ok:
				return runs, fmt.Errorf("%w: hopi: bad varint in run %d", storage.ErrCorrupt, x)
			case e.hub < 0 || e.hub >= n || e.dist < 0 || e.dist >= n:
				return runs, fmt.Errorf("%w: hopi: run %d holds (%d, %d) outside [0, %d)", storage.ErrCorrupt, x, e.hub, e.dist, n)
			case len(runs.Data) > start && !postings && e.hub <= prev.hub,
				len(runs.Data) > start && postings && (e.dist < prev.dist || e.dist == prev.dist && e.hub <= prev.hub):
				return runs, fmt.Errorf("%w: hopi: run %d is out of order", storage.ErrCorrupt, x)
			}
			runs.Data = append(runs.Data, e)
		}
		runs.Off = append(runs.Off, uint32(len(runs.Data)))
	}
	return runs, nil
}

// countEntries counts a blob's elements without decoding them: every varint
// ends in a byte below 0x80, and an element is one varint, plus an escape
// when the tag bits of its first byte are 3.  The count is exact on every
// blob that decodes.
func countEntries(blob []byte) int {
	k, left := 0, 0 // elements begun, varints left in the current one
	for _, b := range blob {
		if left == 0 {
			k++
			left = 1
			if b&3 == 3 {
				left = 2
			}
		}
		if b < 0x80 {
			left--
		}
	}
	return k
}

// nextLabel decodes one (hub, dist) label element; prev carries the hub
// delta chain.  Distances 0..2 sit in the hub delta's low bits; tag 3
// escapes to an explicit uvarint.
func nextLabel(c *storage.Cursor, prev *int32) (hub, dist int32, ok bool) {
	v, ok := c.Uvarint()
	if !ok {
		return 0, 0, false
	}
	*prev += int32(v >> 2)
	d := int32(v & 3)
	if d == 3 {
		e, ok := c.Uvarint()
		if !ok {
			return 0, 0, false
		}
		d += int32(e)
	}
	return *prev, d, true
}

// nextPosting decodes one (dist, node) posting element; prevD/prevN carry
// the delta chains.  Distance deltas 0..2 sit in the zig-zag node delta's
// low bits, with the label codec's tag-3 escape.
func nextPosting(c *storage.Cursor, prevD, prevN *int32) bool {
	v, ok := c.Uvarint()
	if !ok {
		return false
	}
	zz := v >> 2
	*prevN += int32(int64(zz>>1) ^ -int64(zz&1))
	dd := int32(v & 3)
	if dd == 3 {
		e, ok := c.Uvarint()
		if !ok {
			return false
		}
		dd += int32(e)
	}
	*prevD += dd
	return true
}
