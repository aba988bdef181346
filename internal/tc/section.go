package tc

// v2 snapshot section codec.  The forward postings are stored as
// interleaved (node, dist) int32 pairs behind a prefix-offset table — the
// index's own rows — so OpenSection views the snapshot bytes as they are:
// the resulting *Index is the heap type and runs the unmodified probe code.
// The reverse postings stay derived data, built lazily on first reverse
// query exactly as after a heap build.
//
//	u32 n, u32 total
//	rowOff []u32 n+1      (element offsets, end = total)
//	8-aligned
//	pairs  []int32 2×total (interleaved node, dist per posting)

import (
	"fmt"
	"unsafe"

	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

// SectionKind implements storage.SectionEncoder.
func (idx *Index) SectionKind() uint32 { return storage.SectionTC }

// EncodeSection implements storage.SectionEncoder.
func (idx *Index) EncodeSection(sw *storage.SnapshotWriter) {
	sw.U32(uint32(idx.fwd.Len()))
	sw.U32(uint32(len(idx.fwd.Data)))
	sw.U32s(idx.fwd.Off)
	sw.Align(8)
	sw.I32s(postingWords(idx.fwd.Data))
}

// postingWords reinterprets postings as their int32 representation;
// posting is exactly two int32 fields, so the layouts coincide.
func postingWords(ps []posting) []int32 {
	if len(ps) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&ps[0])), len(ps)*2)
}

// OpenSection returns an Index whose rows are a view of the section bytes.
// One scan validates node ranges and per-row ordering (ascending node IDs,
// the invariant the binary-search probes rely on); nothing is copied.
func OpenSection(g *lgraph.LGraph, data []byte) (pathindex.Index, error) {
	d := storage.NewSectionData(data)
	n := int(d.U32())
	total := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n != g.NumNodes() {
		return nil, fmt.Errorf("tc: section has %d nodes, graph %d", n, g.NumNodes())
	}
	if int64(total) > int64(n)*int64(n) {
		return nil, fmt.Errorf("tc: %d postings for %d nodes", total, n)
	}
	idx := &Index{g: g}
	idx.fwd.Off = d.PrefixOffsets(n, uint32(total))
	d.Align(8)
	flat := d.I32s(2 * total)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if total > 0 {
		idx.fwd.Data = unsafe.Slice((*posting)(unsafe.Pointer(&flat[0])), total)
	}
	for u := int32(0); u < int32(n); u++ {
		prev := int32(-1)
		for _, p := range idx.fwd.Row(u) {
			if p.node <= prev || int(p.node) >= n || p.dist < 0 {
				return nil, fmt.Errorf("tc: row %d corrupt at node %d", u, p.node)
			}
			prev = p.node
		}
	}
	return idx, nil
}
