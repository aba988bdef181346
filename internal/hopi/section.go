package hopi

// v2 snapshot section codec.  HOPI's labels and postings dominate index
// size, so unlike ppo/apex/tc — whose sections are fixed-width arrays their
// index types alias in place — the hopi section keeps them as delta-encoded
// varint runs.  Opening a section decodes and validates every run into the
// heap Index a build produces (one offset table and one array per blob), so
// an opened generation probes through the same code, at the same speed, as
// a built one, and re-persists by re-encoding like one.
//
//	u32 n
//	u32 inLen, outLen, hubInLen, hubOutLen   (blob byte lengths)
//	inOff, outOff         []u32 n+1           byte offsets into the blobs
//	hubInOff, hubOutOff   []u32 n+1
//	in, out, hubIn, hubOut blobs              raw varint runs
//
// Label runs (in/out, hub-ascending):    uvarint(hub Δ), uvarint(dist)
// Posting runs (hubIn/hubOut, by (dist, node)):
//	uvarint(dist Δ), varint(node Δ)       (zig-zag; node may regress)

import (
	"encoding/binary"
	"fmt"

	"repro/internal/csr"
	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

// SectionKind implements storage.SectionEncoder.
func (idx *Index) SectionKind() uint32 { return storage.SectionHOPI }

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
	sw.U32s(inOff)
	sw.U32s(outOff)
	sw.U32s(hubInOff)
	sw.U32s(hubOutOff)
	sw.Raw(inB)
	sw.Raw(outB)
	sw.Raw(hubInB)
	sw.Raw(hubOutB)
}

// encodeLabelRuns delta-encodes hub-sorted label slices: hub deltas are
// non-negative, so both fields are plain uvarints.
func encodeLabelRuns(labels csr.Rows[entry]) ([]uint32, []byte) {
	offs := make([]uint32, labels.Len()+1)
	var blob []byte
	for i := range int32(labels.Len()) {
		l := labels.Row(i)
		prev := int32(0)
		for _, e := range l {
			blob = binary.AppendUvarint(blob, uint64(e.hub-prev))
			prev = e.hub
			blob = binary.AppendUvarint(blob, uint64(e.dist))
		}
		offs[i+1] = uint32(len(blob))
	}
	return offs, blob
}

// encodePostingRuns delta-encodes (dist, node)-sorted postings: distance
// deltas are non-negative uvarints, node deltas may regress and use
// zig-zag varints.
func encodePostingRuns(postings csr.Rows[entry]) ([]uint32, []byte) {
	offs := make([]uint32, postings.Len()+1)
	var blob []byte
	for i := range int32(postings.Len()) {
		p := postings.Row(i)
		prevD, prevN := int32(0), int32(0)
		for _, e := range p {
			blob = binary.AppendUvarint(blob, uint64(e.dist-prevD))
			blob = binary.AppendVarint(blob, int64(e.hub-prevN))
			prevD, prevN = e.dist, e.hub
		}
		offs[i+1] = uint32(len(blob))
	}
	return offs, blob
}

// OpenSection decodes a raw section into an *Index over g.  Every run is
// validated (decodeRuns), so a forged section is rejected, never served.
func OpenSection(g *lgraph.LGraph, data []byte) (pathindex.Index, error) {
	return openSection(g, data, false)
}

// openSection decodes either codec: both share the envelope and differ in
// the offset tables (plain u32 or bit-packed) and the run codec (tight).
func openSection(g *lgraph.LGraph, data []byte, tight bool) (pathindex.Index, error) {
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
	var offs [4]func(int32) uint32
	for i := range offs {
		if tight {
			p := d.PackedPrefixOffsets(n, uint32(lens[i]))
			offs[i] = func(x int32) uint32 { return uint32(p.At(x)) }
		} else {
			raw := d.PrefixOffsets(n, uint32(lens[i]))
			offs[i] = func(x int32) uint32 { return raw[x] }
		}
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
		runs, err := decodeRuns(offs[i], blobs[i], int32(n), tight, i >= 2)
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
func decodeRuns(off func(int32) uint32, blob []byte, n int32, tight, postings bool) (csr.Rows[entry], error) {
	runs := csr.Rows[entry]{Off: make([]uint32, 1, n+1), Data: make([]entry, 0, countEntries(blob, tight))}
	for x := int32(0); x < n; x++ {
		c := storage.Cursor{B: blob[off(x):off(x+1)]}
		start := len(runs.Data)
		var e, prev entry
		for c.Pos < len(c.B) {
			prev = e
			ok := false
			if postings {
				ok = nextPosting(&c, &e.dist, &e.hub, tight)
			} else {
				e.hub, e.dist, ok = nextLabel(&c, &e.hub, tight)
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
// ends in a byte below 0x80, a raw element is two varints, and a tight one
// is one, plus an escape when the tag bits of its first byte are 3.  The
// count is exact on every blob that decodes.
func countEntries(blob []byte, tight bool) int {
	k, left := 0, 0 // elements begun, varints left in the current one
	for _, b := range blob {
		if left == 0 {
			k++
			left = 2
			if tight && b&3 != 3 {
				left = 1
			}
		}
		if b < 0x80 {
			left--
		}
	}
	return k
}

// nextLabel decodes one (hub, dist) label element; prev carries the hub
// delta chain.  The tight codec folds distances 0..2 into the hub delta's
// low bits (tag 3 escapes to an explicit uvarint) — 2-hop label distances
// are almost always tiny, so most entries are one varint instead of two.
func nextLabel(c *storage.Cursor, prev *int32, tight bool) (hub, dist int32, ok bool) {
	if tight {
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
	dh, ok := c.Uvarint()
	if !ok {
		return 0, 0, false
	}
	dd, ok := c.Uvarint()
	if !ok {
		return 0, 0, false
	}
	*prev += int32(dh)
	return *prev, int32(dd), true
}

// nextPosting decodes one (dist, node) posting element; prevD/prevN carry
// the delta chains.  The tight codec folds distance deltas 0..2 into the
// zig-zag node delta's low bits with a tag-3 escape, mirroring the tight
// label codec.
func nextPosting(c *storage.Cursor, prevD, prevN *int32, tight bool) bool {
	if tight {
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
	dd, ok := c.Uvarint()
	if !ok {
		return false
	}
	dn, ok := c.Varint()
	if !ok {
		return false
	}
	*prevD += int32(dd)
	*prevN += int32(dn)
	return true
}
