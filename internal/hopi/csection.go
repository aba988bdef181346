package hopi

// Compressed v2 snapshot section codec (kind SectionHOPIC).  The raw hopi
// section (section.go) already varint-delta-codes the label and posting
// blobs; what it spends freely are the four plain-u32 per-node offset
// tables (16 bytes per node) and one varint per field.  This encoding
// bit-packs the offset tables (storage.PackedI32 — ascending offsets pack
// to a few bits each) and switches the blobs to the prefix-truncated
// codec: the tiny distance (or distance delta) rides in the low two bits
// of the hub (or zig-zag node) varint, with tag 3 escaping to an explicit
// extra uvarint.  Both encodings open through the same decoder into the
// same Index; the codec is a branch on its tight flag.
//
//	u32 n
//	u32 inLen, outLen, hubInLen, hubOutLen   (blob byte lengths)
//	packed inOff, outOff          n+1 values  byte offsets into the blobs
//	packed hubInOff, hubOutOff    n+1 values
//	in, out, hubIn, hubOut blobs              tight varint runs
//
// Label runs (in/out, hub-ascending):
//	uvarint(hubΔ<<2 | min(dist,3)) [uvarint(dist-3)]
// Posting runs (hubIn/hubOut, by (dist, node)):
//	uvarint(zigzag(nodeΔ)<<2 | min(distΔ,3)) [uvarint(distΔ-3)]

import (
	"encoding/binary"

	"repro/internal/csr"
	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

// CompressedSectionKind implements storage.CompressedSectionEncoder.
func (idx *Index) CompressedSectionKind() uint32 { return storage.SectionHOPIC }

// EncodeCompressedSection implements storage.CompressedSectionEncoder.
func (idx *Index) EncodeCompressedSection(sw *storage.SnapshotWriter) {
	inOff, inB := encodeLabelRunsTight(idx.in)
	outOff, outB := encodeLabelRunsTight(idx.out)
	hubInOff, hubInB := encodePostingRunsTight(idx.hubIn)
	hubOutOff, hubOutB := encodePostingRunsTight(idx.hubOut)
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

func encodeLabelRunsTight(labels csr.Rows[entry]) ([]int32, []byte) {
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

func encodePostingRunsTight(postings csr.Rows[entry]) ([]int32, []byte) {
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

// OpenCompressedSection decodes a compressed section into an *Index over
// g, validated exactly like OpenSection.
func OpenCompressedSection(g *lgraph.LGraph, data []byte) (pathindex.Index, error) {
	return openSection(g, data, true)
}
