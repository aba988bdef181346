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
	n := len(idx.pre)
	numTags := len(idx.tagPre)
	flags := uint32(secFlagDerived)
	if idx.runsSorted {
		flags |= secFlagRunsSorted
	}
	numDepths := len(idx.depthRuns)
	sw.U32(uint32(n))
	sw.U32(uint32(numTags))
	sw.U32(uint32(numDepths))
	sw.U32(flags)
	sw.I32s(idx.pre)
	sw.I32s(idx.postorder())
	sw.I32s(idx.depth)
	sw.I32s(idx.parent)
	sw.I32s(idx.size)
	sw.I32s(idx.byPre)
	writeNested32(sw, idx.tagPre)
	writeNested32(sw, idx.depthRuns)
	// Flatten tagDepth: a run-count prefix per tag, then the per-run depth
	// and data-offset tables, then the concatenated pre-rank runs.
	runs := 0
	for _, trs := range idx.tagDepth {
		runs += len(trs)
	}
	idxTab := make([]uint32, numTags+1)
	depthTab := make([]int32, 0, runs)
	startTab := make([]uint32, 0, runs+1)
	total := uint32(0)
	for t, trs := range idx.tagDepth {
		idxTab[t+1] = idxTab[t] + uint32(len(trs))
		for _, r := range trs {
			depthTab = append(depthTab, r.depth)
			startTab = append(startTab, total)
			total += uint32(len(r.pres))
		}
	}
	startTab = append(startTab, total)
	sw.U32(uint32(runs))
	sw.U32s(idxTab)
	sw.I32s(depthTab)
	sw.U32s(startTab)
	for _, trs := range idx.tagDepth {
		for _, r := range trs {
			sw.I32s(r.pres)
		}
	}
}

// writeNested32 writes a [][]int32 as a prefix-offset table plus the
// concatenated elements.
func writeNested32(sw *storage.SnapshotWriter, rows [][]int32) {
	offs := make([]uint32, len(rows)+1)
	for i, r := range rows {
		offs[i+1] = offs[i] + uint32(len(r))
	}
	sw.U32s(offs)
	for _, r := range rows {
		sw.I32s(r)
	}
}

// readNested32 reconstructs a [][]int32 of subslice headers over a
// zero-copy data view; total is the required concatenated length.
func readNested32(d *storage.SectionData, count, total int) [][]int32 {
	offs := d.PrefixOffsets(count, uint32(total))
	data := d.I32s(total)
	if d.Err() != nil {
		return nil
	}
	rows := make([][]int32, count)
	for i := range rows {
		rows[i] = data[offs[i]:offs[i+1]:offs[i+1]]
	}
	return rows
}

// OpenSection reconstructs an Index whose arrays alias the section bytes.
// Validation is one bounded scan over the fixed arrays (value ranges and
// prefix-table monotonicity) so that no probe can index out of bounds even
// on adversarial input; nothing is decoded or rebuilt.
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
	idx.tagPre = readNested32(d, numTags, n)
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
	for _, ranks := range idx.tagPre {
		for _, p := range ranks {
			if p < 0 || int(p) >= n {
				return nil, fmt.Errorf("ppo: tag rank %d out of range", p)
			}
		}
	}
	idx.depthRuns = readNested32(d, numDepths, n)
	runs := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if runs > n {
		return nil, fmt.Errorf("ppo: %d tag runs for %d nodes", runs, n)
	}
	runIdx := d.PrefixOffsets(numTags, uint32(runs))
	depthTab := d.I32s(runs)
	startTab := d.PrefixOffsets(runs, uint32(n))
	runData := d.I32s(n)
	if err := d.Err(); err != nil {
		return nil, err
	}
	for _, p := range runData {
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("ppo: tag-run rank %d out of range", p)
		}
	}
	for _, run := range idx.depthRuns {
		for _, p := range run {
			if p < 0 || int(p) >= n {
				return nil, fmt.Errorf("ppo: depth-run rank %d out of range", p)
			}
		}
	}
	idx.tagDepth = make([][]depthRun, numTags)
	for t := 0; t < numTags; t++ {
		lo, hi := runIdx[t], runIdx[t+1]
		if lo == hi {
			continue
		}
		trs := make([]depthRun, 0, hi-lo)
		for r := lo; r < hi; r++ {
			trs = append(trs, depthRun{
				depth: depthTab[r],
				pres:  runData[startTab[r]:startTab[r+1]:startTab[r+1]],
			})
		}
		idx.tagDepth[t] = trs
	}
	return idx, nil
}
