package ppo

// Compressed v2 snapshot section codec (kind SectionPPOC).  The raw
// section (section.go) stores every probe array as plain int32s — ~40
// bytes per node; this one stores them frame-of-reference bit-packed
// (storage.PackedI32), which exploits how PPO's arrays actually look:
// preorder ranks are near-identity, depths are tiny, parents sit a few
// nodes back, subtree sizes are small.  Three arrays disappear entirely:
//
//   - post is a derived quantity of a forest numbering,
//     post = pre + size - 1 - depth, so it is never stored;
//   - parent is stored as the relative offset x - parent(x) (0 for roots),
//     turning a block that mixes roots and deep nodes — which would pin
//     the frame width at the node-id range — into single-digit deltas;
//   - tagPre (the per-tag ascending preorder ranks) is stored only when
//     the sort fallback needs it (!runsSorted); otherwise it is merged
//     back out of the per-(tag, depth) runs on the cold WriteTo path.
//
// Probes run directly on the packed bytes through CIndex, a zero-copy
// view: each access is one 8-byte load + shift + mask, binary searches
// ride the per-block directory (point probes never scan a section), and
// the only steady-state heap traffic is the pooled sort-fallback scratch —
// 0 allocs/op, exactly like the raw view.
//
//	u32 n, numTags, runs, flags        (flags: 1 runsSorted, 2 derived,
//	                                    4 tagPre stored)
//	packed pre, depth, parentRel, size, byPre        each n values
//	-- iff tagPre stored --
//	packed tagPreOff (numTags+1)        packed tagPreData  (n)
//	-- iff derived --
//	packed tagRunIdx (numTags+1)        packed tagRunDepth (runs)
//	packed tagRunStart (runs+1)         packed tagRunData  (n)
//	                                    (per tag, (depth, pre)-sorted)
//
// The prefix-offset tables are packed too (PackedPrefixOffsets): a corpus
// section carries tens of thousands of tag-run starts whose values span
// the node range but whose per-block deltas are tiny, so frame-of-
// reference packing shaves them from 4 bytes to roughly one.
//
// Unlike the raw section the compressed one does not carry the per-depth
// wildcard runs: they repeat every preorder rank a third time for the one
// probe — untagged EachReachable — that the interval scan plus the pooled
// sort fallback already serves with identical emission order.  Wildcard
// probes on a compressed section therefore cost O(k log k) instead of
// O(k); tagged probes, the hot path, keep the streamed run machinery.

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

const secFlagTagPre = 1 << 2

// CompressedSectionKind implements storage.CompressedSectionEncoder.
func (idx *Index) CompressedSectionKind() uint32 { return storage.SectionPPOC }

// EncodeCompressedSection implements storage.CompressedSectionEncoder.
func (idx *Index) EncodeCompressedSection(sw *storage.SnapshotWriter) {
	n := len(idx.pre)
	numTags := len(idx.tagPre)
	derived := idx.depthRuns != nil
	hasTagPre := !(derived && idx.runsSorted)
	flags := uint32(0)
	if idx.runsSorted {
		flags |= secFlagRunsSorted
	}
	if derived {
		flags |= secFlagDerived
	}
	if hasTagPre {
		flags |= secFlagTagPre
	}
	runs := 0
	for _, trs := range idx.tagDepth {
		runs += len(trs)
	}
	sw.U32(uint32(n))
	sw.U32(uint32(numTags))
	sw.U32(uint32(runs))
	sw.U32(flags)
	sw.PackedI32s(idx.pre)
	sw.PackedI32s(idx.depth)
	rel := make([]int32, n)
	for v := range rel {
		if p := idx.parent[v]; p >= 0 {
			rel[v] = int32(v) - p
		}
	}
	sw.PackedI32s(rel)
	sw.PackedI32s(idx.size)
	sw.PackedI32s(idx.byPre)
	if hasTagPre {
		writePackedNested(sw, idx.tagPre, n)
	}
	if !derived {
		return
	}
	idxTab := make([]int32, numTags+1)
	depthTab := make([]int32, 0, runs)
	startTab := make([]int32, 0, runs+1)
	runData := make([]int32, 0, n)
	for t, trs := range idx.tagDepth {
		idxTab[t+1] = idxTab[t] + int32(len(trs))
		for _, r := range trs {
			depthTab = append(depthTab, r.depth)
			startTab = append(startTab, int32(len(runData)))
			runData = append(runData, r.pres...)
		}
	}
	startTab = append(startTab, int32(len(runData)))
	sw.PackedI32s(idxTab)
	sw.PackedI32s(depthTab)
	sw.PackedI32s(startTab)
	sw.PackedI32s(runData)
}

// writePackedNested writes a [][]int32 as a packed prefix-offset table plus
// the bit-packed concatenation (total elements).
func writePackedNested(sw *storage.SnapshotWriter, rows [][]int32, total int) {
	offs := make([]int32, len(rows)+1)
	flat := make([]int32, 0, total)
	for i, r := range rows {
		offs[i+1] = offs[i] + int32(len(r))
		flat = append(flat, r...)
	}
	sw.PackedI32s(offs)
	sw.PackedI32s(flat)
}

// CIndex is the zero-copy view over a compressed PPO section: the same
// probe surface and emission order as *Index, served by O(1) packed-array
// extraction instead of plain loads.
type CIndex struct {
	g *lgraph.LGraph

	raw []byte // whole section, for EncodeSection passthrough
	n   int32

	pre, depth, parentRel, size, byPre storage.PackedI32

	hasTagPre  bool
	tagPreOff  storage.PackedI32
	tagPreData storage.PackedI32

	derived     bool
	runsSorted  bool
	tagRunIdx   storage.PackedI32
	tagRunDepth storage.PackedI32
	tagRunStart storage.PackedI32
	tagRunData  storage.PackedI32

	scratch sync.Pool
}

var _ pathindex.Index = (*CIndex)(nil)
var _ storage.SectionEncoder = (*CIndex)(nil)

// OpenCompressedSection lays a CIndex over the section bytes.  Like the
// raw opener it validates every value range in one bounded scan — packed
// directories were already bounds-proofed by the storage layer, so after
// this no probe can read out of bounds even on adversarial input.
func OpenCompressedSection(g *lgraph.LGraph, data []byte) (pathindex.Index, error) {
	d := storage.NewSectionData(data)
	n := int(d.U32())
	numTags := int(d.U32())
	runs := int(d.U32())
	flags := d.U32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n != g.NumNodes() || numTags != g.NumTags() {
		return nil, fmt.Errorf("ppo: section has %d nodes/%d tags, graph %d/%d",
			n, numTags, g.NumNodes(), g.NumTags())
	}
	if runs > n {
		return nil, fmt.Errorf("ppo: %d tag runs for %d nodes", runs, n)
	}
	v := &CIndex{
		g:          g,
		raw:        data,
		n:          int32(n),
		runsSorted: flags&secFlagRunsSorted != 0,
		derived:    flags&secFlagDerived != 0,
		hasTagPre:  flags&secFlagTagPre != 0,
	}
	if !v.hasTagPre && !(v.derived && v.runsSorted) {
		return nil, fmt.Errorf("ppo: section stores neither tagPre nor sorted tag runs")
	}
	v.pre = d.PackedI32s()
	v.depth = d.PackedI32s()
	v.parentRel = d.PackedI32s()
	v.size = d.PackedI32s()
	v.byPre = d.PackedI32s()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if v.pre.Len() != n || v.depth.Len() != n || v.parentRel.Len() != n ||
		v.size.Len() != n || v.byPre.Len() != n {
		return nil, fmt.Errorf("ppo: truncated packed arrays")
	}
	for x := int32(0); x < int32(n); x++ {
		p, q := v.pre.At(x), v.byPre.At(x)
		if p < 0 || int(p) >= n || q < 0 || int(q) >= n {
			return nil, fmt.Errorf("ppo: rank out of range at node %d", x)
		}
		if pa := v.parentOf(x); pa < -1 || int(pa) >= n {
			return nil, fmt.Errorf("ppo: parent %d out of range", pa)
		}
		if dp := v.depth.At(x); dp < 0 || int(dp) >= n {
			return nil, fmt.Errorf("ppo: depth %d out of range", dp)
		}
		if sz := v.size.At(x); sz < 1 || int(p)+int(sz) > n {
			return nil, fmt.Errorf("ppo: subtree [%d+%d] out of range", p, sz)
		}
	}
	checkRanks := func(p storage.PackedI32, what string) error {
		for i := int32(0); i < int32(p.Len()); i++ {
			if r := p.At(i); r < 0 || int(r) >= n {
				return fmt.Errorf("ppo: %s rank %d out of range", what, r)
			}
		}
		return nil
	}
	if v.hasTagPre {
		v.tagPreOff = d.PackedPrefixOffsets(numTags, uint32(n))
		v.tagPreData = d.PackedI32s()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if v.tagPreData.Len() != n {
			return nil, fmt.Errorf("ppo: tagPre holds %d ranks for %d nodes", v.tagPreData.Len(), n)
		}
		if err := checkRanks(v.tagPreData, "tag"); err != nil {
			return nil, err
		}
	}
	if !v.derived {
		v.runsSorted = false
		return v, nil
	}
	v.tagRunIdx = d.PackedPrefixOffsets(numTags, uint32(runs))
	v.tagRunDepth = d.PackedI32s()
	v.tagRunStart = d.PackedPrefixOffsets(runs, uint32(n))
	v.tagRunData = d.PackedI32s()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if v.tagRunDepth.Len() != runs || v.tagRunData.Len() != n {
		return nil, fmt.Errorf("ppo: truncated packed run arrays")
	}
	if err := checkRanks(v.tagRunData, "tag-run"); err != nil {
		return nil, err
	}
	return v, nil
}

// SectionKind implements storage.SectionEncoder.
func (v *CIndex) SectionKind() uint32 { return storage.SectionPPOC }

// EncodeSection re-emits the section the view was opened from, verbatim.
func (v *CIndex) EncodeSection(sw *storage.SnapshotWriter) { sw.Raw(v.raw) }

// parentOf decodes the relative parent encoding: 0 is a root.
func (v *CIndex) parentOf(x int32) int32 {
	r := v.parentRel.At(x)
	if r == 0 {
		return -1
	}
	return x - r
}

// Name implements pathindex.Index.
func (v *CIndex) Name() string { return "ppo" }

// NumNodes implements pathindex.Index.
func (v *CIndex) NumNodes() int { return int(v.n) }

// Reachable implements pathindex.Index: y is in x's subtree iff its
// preorder rank falls in [pre(x), pre(x)+size(x)) — the interval form of
// the pre/post plane test, needing no postorder array.
func (v *CIndex) Reachable(x, y int32) bool {
	px, py := v.pre.At(x), v.pre.At(y)
	return px <= py && py-px < v.size.At(x)
}

// Distance implements pathindex.Index.
func (v *CIndex) Distance(x, y int32) (int32, bool) {
	if !v.Reachable(x, y) {
		return 0, false
	}
	return v.depth.At(y) - v.depth.At(x), true
}

// clinkTable is the pathindex.LinkTable of a compressed PPO view: the
// source-side preorder ranks and depths are extracted from the packed arrays
// once at table build, and only the probe side pays packed extraction, three
// times per call.
type clinkTable struct {
	v *CIndex
	linkSweep
}

// LinkTable implements pathindex.LinkTabler.
func (v *CIndex) LinkTable(sources []int32) pathindex.LinkTable {
	t := &clinkTable{v: v}
	t.build(sources, func(y int32) (int32, int32) { return v.pre.At(y), v.depth.At(y) })
	return t
}

// LinkDistancesTo implements pathindex.LinkTable.
func (t *clinkTable) LinkDistancesTo(x int32, fn func(i int, d int32) bool) {
	t.each(t.v.pre.At(x), t.v.size.At(x), t.v.depth.At(x), fn)
}

// EachReachable implements pathindex.Index.  The compressed section does
// not carry the per-depth wildcard runs (see the layout comment), so the
// untagged probe always scans the preorder interval and sorts the pairs
// through the pooled scratch — the same path, and the same (dist, node)
// emission order, as a raw section whose runs are unsorted.
func (v *CIndex) EachReachable(x int32, fn pathindex.Visit) {
	lo := v.pre.At(x)
	hi := lo + v.size.At(x)
	base := v.depth.At(x)
	sc := getInterval(&v.scratch)
	for p := lo; p < hi; p++ {
		n := v.byPre.At(p)
		sc.pairs = append(sc.pairs, distNode{d: v.depth.At(n) - base, n: n})
	}
	emitPairs(&v.scratch, sc, fn)
}

// EachReachableByTag implements pathindex.Index over the packed per-(tag,
// depth) runs.
func (v *CIndex) EachReachableByTag(x int32, tag lgraph.Tag, fn pathindex.Visit) {
	if tag < 0 || int(tag) >= v.g.NumTags() {
		return
	}
	lo := v.pre.At(x)
	hi := lo + v.size.At(x)
	base := v.depth.At(x)
	if !v.runsSorted {
		sc := getInterval(&v.scratch)
		shi := v.tagPreOff.At(int32(tag) + 1)
		for s := v.tagPreData.SearchGE(v.tagPreOff.At(int32(tag)), shi, lo); s < shi; s++ {
			p := v.tagPreData.At(s)
			if p >= hi {
				break
			}
			n := v.byPre.At(p)
			sc.pairs = append(sc.pairs, distNode{d: v.depth.At(n) - base, n: n})
		}
		emitPairs(&v.scratch, sc, fn)
		return
	}
	for r, rend := v.tagRunIdx.At(int32(tag)), v.tagRunIdx.At(int32(tag)+1); r < rend; r++ {
		d := v.tagRunDepth.At(r)
		if d < base {
			continue // a subtree node is at least as deep as its root
		}
		shi := v.tagRunStart.At(r + 1)
		for s := v.tagRunData.SearchGE(v.tagRunStart.At(r), shi, lo); s < shi; s++ {
			p := v.tagRunData.At(s)
			if p >= hi {
				break
			}
			if !fn(v.byPre.At(p), d-base) {
				return
			}
		}
	}
}

// EachReaching implements pathindex.Index via the parent chain.
func (v *CIndex) EachReaching(x int32, fn pathindex.Visit) {
	d := int32(0)
	for n := x; n != -1; n = v.parentOf(n) {
		if !fn(n, d) {
			return
		}
		d++
	}
}

// EachReachingByTag implements pathindex.Index.
func (v *CIndex) EachReachingByTag(x int32, tag lgraph.Tag, fn pathindex.Visit) {
	d := int32(0)
	for n := x; n != -1; n = v.parentOf(n) {
		if v.g.Tag(n) == tag {
			if !fn(n, d) {
				return
			}
		}
		d++
	}
}

// WriteTo implements pathindex.Index by re-emitting the exact canonical
// stream a heap-built index would write; postorder ranks are recomputed from the
// forest identity post = pre + size - 1 - depth, and tagPre — when not
// stored — is merged back out of the (depth, pre)-sorted tag runs.
func (v *CIndex) WriteTo(w io.Writer) (int64, error) {
	n := int(v.n)
	pre := make([]int32, n)
	post := make([]int32, n)
	depth := make([]int32, n)
	parent := make([]int32, n)
	for x := 0; x < n; x++ {
		pre[x] = v.pre.At(int32(x))
		depth[x] = v.depth.At(int32(x))
		parent[x] = v.parentOf(int32(x))
		post[x] = pre[x] + v.size.At(int32(x)) - 1 - depth[x]
	}
	numTags := v.g.NumTags()
	tagPre := make([][]int32, numTags)
	if v.hasTagPre {
		for t := 0; t < numTags; t++ {
			lo, hi := v.tagPreOff.At(int32(t)), v.tagPreOff.At(int32(t)+1)
			row := make([]int32, 0, hi-lo)
			for s := lo; s < hi; s++ {
				row = append(row, v.tagPreData.At(s))
			}
			tagPre[t] = row
		}
	} else {
		for t := 0; t < numTags; t++ {
			var row []int32
			for r, rend := v.tagRunIdx.At(int32(t)), v.tagRunIdx.At(int32(t)+1); r < rend; r++ {
				for s, send := v.tagRunStart.At(r), v.tagRunStart.At(r+1); s < send; s++ {
					row = append(row, v.tagRunData.At(s))
				}
			}
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
			tagPre[t] = row
		}
	}
	sw := storage.NewWriter(w)
	sw.Header("ppo")
	sw.Uvarint(uint64(n))
	sw.Int32Slice(pre)
	sw.Int32Slice(post)
	sw.Int32Slice(depth)
	sw.Int32Slice(parent)
	sw.Uvarint(uint64(numTags))
	for _, ranks := range tagPre {
		sw.Int32Slice(ranks)
	}
	return sw.Flush()
}
