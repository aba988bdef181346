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
//     the sort fallback needs it (!runsSorted).
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
//	packed tagRunIdx (numTags+1)        packed tagRunDepth (runs)
//	packed tagRunStart (runs+1)         packed tagRunData  (n)
//	                                    (per tag, (depth, pre)-sorted)
//
// The tag runs are mandatory, as the raw section's derived runs are: flag 2
// says they are there, and a section without it is corrupt.
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

	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

const secFlagTagPre = 1 << 2

// CompressedSectionKind implements storage.CompressedSectionEncoder.
func (idx *Index) CompressedSectionKind() uint32 { return storage.SectionPPOC }

// EncodeCompressedSection implements storage.CompressedSectionEncoder.
func (idx *Index) EncodeCompressedSection(sw *storage.SnapshotWriter) {
	flags := uint32(secFlagDerived)
	if idx.runsSorted {
		flags |= secFlagRunsSorted
	} else {
		flags |= secFlagTagPre
	}
	sw.U32(uint32(len(idx.pre)))
	sw.U32(uint32(idx.tagPre.Len()))
	sw.U32(uint32(len(idx.tagRunDepth.Data)))
	sw.U32(flags)
	sw.PackedI32s(idx.pre)
	sw.PackedI32s(idx.depth)
	rel := make([]int32, len(idx.pre))
	for v := range rel {
		if p := idx.parent[v]; p >= 0 {
			rel[v] = int32(v) - p
		}
	}
	sw.PackedI32s(rel)
	sw.PackedI32s(idx.size)
	sw.PackedI32s(idx.byPre)
	if !idx.runsSorted {
		sw.PackedRows32(idx.tagPre)
	}
	sw.PackedRows32(idx.tagRunDepth)
	sw.PackedRows32(idx.tagRuns)
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

	runsSorted  bool
	tagRunIdx   storage.PackedI32
	tagRunDepth storage.PackedI32
	tagRunStart storage.PackedI32
	tagRunData  storage.PackedI32
}

var _ pathindex.Index = (*CIndex)(nil)
var _ pathindex.Regioner = (*CIndex)(nil)
var _ storage.SectionEncoder = (*CIndex)(nil)

// OpenCompressedSection lays a CIndex over the section bytes.  Like the
// raw opener it validates every value range, in one pass over the arrays a
// packed block at a time, each block tested without a branch per value and
// rescanned value by value only if it fails — packed directories were
// already bounds-proofed by the storage layer, so after this no probe can
// read out of bounds even on adversarial input.  A failing section fails
// with the error of its first failing value, in array order
// (`TestCompressedSectionForgedErrors`).
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
	if flags&secFlagDerived == 0 {
		return nil, fmt.Errorf("%w: ppo-c section without its tag runs", storage.ErrCorrupt)
	}
	v := &CIndex{
		g:          g,
		raw:        data,
		n:          int32(n),
		runsSorted: flags&secFlagRunsSorted != 0,
		hasTagPre:  flags&secFlagTagPre != 0,
	}
	if !v.hasTagPre && !v.runsSorted {
		return nil, fmt.Errorf("ppo: section stores neither tagPre nor sorted tag runs")
	}
	// The header fixes every array's length (n and numTags match the graph,
	// runs <= n), so one reservation holds all the packed directories.
	counts := [11]int{n, n, n, n, n}
	k := 5
	if v.hasTagPre {
		counts[k], counts[k+1] = numTags+1, n
		k += 2
	}
	counts[k], counts[k+1], counts[k+2], counts[k+3] = numTags+1, runs, runs+1, n
	d.ReservePacked(counts[:k+4]...)
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
	// The five per-node arrays are checked side by side, a block at a time,
	// with no branch per node: pre, parentRel and size are decoded and
	// tested by blockInRange, byPre and depth need only a range, which
	// BlockWithin tests without storing them.  Only a block that fails is
	// decoded whole and checked again node by node, with the checks in the
	// order a per-node scan makes them, so the first failing node fails with
	// the same error.
	var pre, byPre, rel, depth, size storage.PackedBlock
	for b := 0; b < v.pre.NumBlocks(); b++ {
		ps, rs, ss := v.pre.Block(b, &pre), v.parentRel.Block(b, &rel), v.size.Block(b, &size)
		x0 := int32(b * len(pre))
		if !blockInRange(uint32(x0), uint32(n), ps, rs, ss) ||
			!v.byPre.BlockWithin(b, 0, int32(n)-1) || !v.depth.BlockWithin(b, 0, int32(n)-1) {
			qs, ds := v.byPre.Block(b, &byPre), v.depth.Block(b, &depth)
			if err := checkNodes(x0, n, ps, qs, rs, ds, ss); err != nil {
				return nil, err
			}
		}
	}
	checkRanks := func(p storage.PackedI32, what string) error {
		if i, r := p.FirstOutside(0, int32(n)-1); i < p.Len() {
			return fmt.Errorf("ppo: %s rank %d out of range", what, r)
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

// blockInRange reports whether the nodes of one decoded block, from node x0
// on, have their preorder rank, parent and subtree in range as checkNodes
// checks them.  Each bound is tested by a subtraction that turns negative
// when it is broken, and the sign bits are ORed into one word, so the test
// has no branch per node; every operand is below 2^33, so no subtraction
// wraps back to positive.  Read as unsigned, a negative rank or size is at
// least 2^31 > n, so pre+size <= n and size >= 1 hold exactly when rank and
// subtree are in range.
func blockInRange(x0, n uint32, ps, rs, ss []int32) bool {
	rs, ss = rs[:len(ps)], ss[:len(ps)]
	n64 := uint64(n)
	over := uint64(0)
	for j, p := range ps {
		size := uint64(uint32(ss[j]))
		// parentAt(x, r)+1, wrapped as the int32 sum wraps: 0 for a root.
		parent1 := uint64(x0 + uint32(j) - uint32(rs[j]) + 1)
		over |= (n64 - uint64(uint32(p)) - size) | (size - 1) | (n64 - parent1)
	}
	return over>>63 == 0
}

// checkNodes checks the nodes of one decoded block, from node x0 on, one at
// a time and in order, and returns the first failing node's error.
func checkNodes(x0 int32, n int, ps, qs, rs, ds, ss []int32) error {
	for j, p := range ps {
		x := x0 + int32(j)
		if q := qs[j]; p < 0 || int(p) >= n || q < 0 || int(q) >= n {
			return fmt.Errorf("ppo: rank out of range at node %d", x)
		}
		if pa := parentAt(x, rs[j]); pa < -1 || int(pa) >= n {
			return fmt.Errorf("ppo: parent %d out of range", pa)
		}
		if dp := ds[j]; dp < 0 || int(dp) >= n {
			return fmt.Errorf("ppo: depth %d out of range", dp)
		}
		if sz := ss[j]; sz < 1 || int(p)+int(sz) > n {
			return fmt.Errorf("ppo: subtree [%d+%d] out of range", p, sz)
		}
	}
	return nil
}

// SectionKind implements storage.SectionEncoder.
func (v *CIndex) SectionKind() uint32 { return storage.SectionPPOC }

// EncodeSection re-emits the section the view was opened from, verbatim.
func (v *CIndex) EncodeSection(sw *storage.SnapshotWriter) { sw.Raw(v.raw) }

// parentOf decodes the relative parent encoding.
func (v *CIndex) parentOf(x int32) int32 { return parentAt(x, v.parentRel.At(x)) }

// parentAt is the parent of x whose relative parent offset is r: 0 is a root.
func parentAt(x, r int32) int32 {
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

// Region implements pathindex.Regioner.
func (v *CIndex) Region(x int32) pathindex.Span {
	lo := v.pre.At(x)
	return pathindex.Span{Lo: lo, Hi: lo + v.size.At(x)}
}

// Depth implements pathindex.Regioner.
func (v *CIndex) Depth(x int32) int32 { return v.depth.At(x) }

// EachReachable implements pathindex.Index.  The compressed section does
// not carry the per-depth wildcard runs (see the layout comment), so the
// untagged probe always scans the preorder interval and sorts the pairs
// through the pooled scratch — the same path, and the same (dist, node)
// emission order, as a raw section whose runs are unsorted.
func (v *CIndex) EachReachable(x int32, fn pathindex.Visit) {
	lo := v.pre.At(x)
	hi := lo + v.size.At(x)
	base := v.depth.At(x)
	sc := getInterval()
	for p := lo; p < hi; p++ {
		n := v.byPre.At(p)
		sc.keys = append(sc.keys, pathindex.PackDistNode(v.depth.At(n)-base, n))
	}
	emitPairs(sc, fn)
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
		sc := getInterval()
		shi := v.tagPreOff.At(int32(tag) + 1)
		for s := v.tagPreData.SearchGE(v.tagPreOff.At(int32(tag)), shi, lo); s < shi; s++ {
			p := v.tagPreData.At(s)
			if p >= hi {
				break
			}
			n := v.byPre.At(p)
			sc.keys = append(sc.keys, pathindex.PackDistNode(v.depth.At(n)-base, n))
		}
		emitPairs(sc, fn)
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
