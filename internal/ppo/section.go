package ppo

// v2 snapshot section codec.  Unlike the canonical stream (EncodeStream),
// which holds only the core arrays, the v2 section stores everything the
// probes touch — byPre, size and the enumeration acceleration structures
// included — as fixed-width little-endian arrays plus prefix-offset tables.
// OpenSection therefore performs no reconstruction: every array is a
// zero-copy view into the snapshot bytes, and the resulting *Index is the
// same type — and runs the same probe code — as a heap-built one.
//
// The section stores the postorder ranks, which no probe reads: the writer
// computes them as pre + size - 1 - depth and the opener skips them.  The
// derived runs are mandatory, and flag 2 says they are there: a section
// without it is corrupt.
//
//	u32 n, numTags, numDepths, flags        (flags: 1 runsSorted, 2 derived)
//	pre, post, depth, parent, size, byPre   []int32 × n
//	tagPreOff  []u32 numTags+1              tagPreData []int32 n
//	depthRunOff []u32 numDepths+1           depthRunData []int32 n
//	u32 runs                                tagRunIdx []u32 numTags+1
//	tagRunDepth []int32 runs                tagRunStart []u32 runs+1
//	tagRunData []int32 n                    (per tag, (depth, pre)-sorted)

import (
	"fmt"

	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

const (
	secFlagRunsSorted = 1 << 0
	secFlagDerived    = 1 << 1
)

// SectionKind implements storage.SectionEncoder.
func (idx *Index) SectionKind() uint32 { return storage.SectionPPO }

// EncodeSection implements storage.SectionEncoder.
func (idx *Index) EncodeSection(sw *storage.SnapshotWriter) {
	flags := uint32(secFlagDerived)
	if idx.runsSorted {
		flags |= secFlagRunsSorted
	}
	sw.U32(uint32(len(idx.pre)))
	sw.U32(uint32(idx.tagPre.Len()))
	sw.U32(uint32(idx.depthRuns.Len()))
	sw.U32(flags)
	sw.I32s(idx.pre)
	sw.I32s(idx.postorder())
	sw.I32s(idx.depth)
	sw.I32s(idx.parent)
	sw.I32s(idx.size)
	sw.I32s(idx.byPre)
	sw.Rows32(idx.tagPre)
	sw.Rows32(idx.depthRuns)
	sw.U32(uint32(len(idx.tagRunDepth.Data)))
	sw.Rows32(idx.tagRunDepth)
	sw.Rows32(idx.tagRuns)
}

// OpenSection returns an Index whose arrays, rows included, are views of the
// section bytes.  Validation is one bounded scan over the fixed arrays
// (value ranges and prefix-table monotonicity) so that no probe can index
// out of bounds even on adversarial input; nothing is decoded or rebuilt.
func OpenSection(g *lgraph.LGraph, data []byte) (pathindex.Index, error) {
	d := storage.NewSectionData(data)
	n := int(d.U32())
	numTags := int(d.U32())
	numDepths := int(d.U32())
	flags := d.U32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n != g.NumNodes() || numTags != g.NumTags() {
		return nil, fmt.Errorf("ppo: section has %d nodes/%d tags, graph %d/%d",
			n, numTags, g.NumNodes(), g.NumTags())
	}
	if numDepths > n {
		return nil, fmt.Errorf("ppo: %d depth runs for %d nodes", numDepths, n)
	}
	if flags&secFlagDerived == 0 {
		return nil, fmt.Errorf("%w: ppo section without its derived runs", storage.ErrCorrupt)
	}
	pre := d.I32s(n)
	d.I32s(n) // post
	idx := &Index{
		g:          g,
		pre:        pre,
		depth:      d.I32s(n),
		parent:     d.I32s(n),
		size:       d.I32s(n),
		byPre:      d.I32s(n),
		runsSorted: flags&secFlagRunsSorted != 0,
	}
	idx.tagPre = d.Rows32(numTags, n)
	if err := d.Err(); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		p, q := idx.pre[v], idx.byPre[v]
		if p < 0 || int(p) >= n || q < 0 || int(q) >= n {
			return nil, fmt.Errorf("ppo: rank out of range at node %d", v)
		}
		if pa := idx.parent[v]; pa < -1 || int(pa) >= n {
			return nil, fmt.Errorf("ppo: parent %d out of range", pa)
		}
		if dp := idx.depth[v]; dp < 0 || int(dp) >= n {
			return nil, fmt.Errorf("ppo: depth %d out of range", dp)
		}
		if sz := idx.size[v]; sz < 1 || int(p)+int(sz) > n {
			return nil, fmt.Errorf("ppo: subtree [%d+%d] out of range", p, sz)
		}
	}
	for _, p := range idx.tagPre.Data {
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("ppo: tag rank %d out of range", p)
		}
	}
	idx.depthRuns = d.Rows32(numDepths, n)
	runs := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if runs > n {
		return nil, fmt.Errorf("ppo: %d tag runs for %d nodes", runs, n)
	}
	idx.tagRunDepth = d.Rows32(numTags, runs)
	idx.tagRuns = d.Rows32(runs, n)
	if err := d.Err(); err != nil {
		return nil, err
	}
	for _, p := range idx.tagRuns.Data {
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("ppo: tag-run rank %d out of range", p)
		}
	}
	for _, p := range idx.depthRuns.Data {
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("ppo: depth-run rank %d out of range", p)
		}
	}
	return idx, nil
}
