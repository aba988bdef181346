// Package ppo implements the pre-/postorder path index of Grust (SIGMOD
// 2002), the PPO strategy of FliX (§2.2).
//
// The index assigns every node of a forest its preorder and postorder rank
// from one depth-first traversal.  A node x reaches y iff
// pre(x) <= pre(y) and post(x) >= post(y); the distance between them is the
// depth difference.  In a forest post = pre + size - 1 - depth, so the index
// keeps the subtree size in place of the postorder rank and asks the same
// question as an interval one: x reaches y iff pre(y) lies in
// [pre(x), pre(x)+size(x)).  Building takes O(E) time and the index stores a
// constant number of integers per node, which makes PPO the cheapest
// strategy — but it is only applicable when the meta document's data graph
// is a forest (no element with two incoming edges, no cycles).
//
// Build also derives acceleration runs — per depth and per (tag, depth), the
// preorder ranks in order — so that a subtree is enumerated level by level
// with one binary search per level; forests whose preorder is not
// node-ascending per depth take a pooled collect-and-sort fallback.  Every
// probe streams in (dist, node) order and allocates nothing.
//
// There are two views.  Index serves heap builds and raw `ppo` sections,
// which store its arrays (csr.Rows included) as they are and open as views
// of the mapping; the raw section also stores the postorder ranks, which no
// probe reads.  CIndex serves `ppo-c` sections (csection.go): every array
// frame-of-reference bit-packed (storage.PackedI32), post derived, parent
// stored as the offset x − parent(x), and the per-depth runs dropped, so the
// untagged probe takes the sort fallback.  CIndex probes the packed bytes in
// place with the same emission order; it cannot write the canonical stream.
// Both views offer pathindex.Regioner, on which the evaluator's one link
// table is built (`TestRegionerContract`).  Both section codecs store the
// derived runs and set flag 2; an opener refuses a section without it
// before reading its arrays, and checks every range an opened section's
// probes will trust (`TestSnapshotV2CorruptionMatrix`,
// `FuzzOpenCompressedSection`).
package ppo

import (
	"cmp"
	"errors"
	"slices"
	"sync"

	"repro/internal/csr"
	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

// ErrNotForest is returned when the local graph has a node with more than
// one incoming edge or a cycle.
var ErrNotForest = errors.New("ppo: graph is not a forest")

// Index is a pre/postorder connection index over a forest.
type Index struct {
	g *lgraph.LGraph

	pre    []int32 // preorder rank per node
	depth  []int32 // tree depth per node (roots have 0)
	parent []int32 // parent per node (-1 for roots)
	size   []int32 // subtree size per node (including the node)
	byPre  []int32 // node at each preorder rank (inverse of pre)

	// Row t of tagPre lists the preorder ranks of the nodes with tag t,
	// ascending; used for the a//b range scan.
	tagPre csr.Rows[int32]

	// The fields below are derived by finishDerived at build time; the
	// canonical stream leaves them out, the snapshot sections store them.
	//
	// Row d of depthRuns lists the preorder ranks of the nodes at depth d,
	// ascending.  A subtree is the preorder interval [pre(x), pre(x)+size),
	// so enumerating it in ascending distance order is one binary search
	// per depth level instead of bucketing the whole interval into a
	// per-query map — the enumeration probe allocates nothing.
	depthRuns csr.Rows[int32]
	// The tag runs group each tagPre row by depth.  Row t of tagRunDepth
	// holds the depths of tag t's runs, ascending, and its offsets number
	// the runs: run r has depth tagRunDepth.Data[r], and row r of tagRuns
	// holds its pre-ranks, ascending.
	tagRunDepth, tagRuns csr.Rows[int32]
	// runsSorted reports that byPre is node-ascending within every depth
	// run, which makes the run-scan emission order satisfy the
	// interface's (dist, node) contract without a per-query sort.  It
	// holds for most forests the meta-document builder produces; the
	// sort fallback covers the general case.
	runsSorted bool
}

var _ pathindex.Index = (*Index)(nil)
var _ pathindex.Regioner = (*Index)(nil)

// Strategy is the registry entry for PPO.
var Strategy = pathindex.Strategy{
	Name:           "ppo",
	Build:          func(g *lgraph.LGraph) (pathindex.Index, error) { return Build(g) },
	RequiresForest: true,
}

// Build constructs the index.  It fails with ErrNotForest when the graph is
// not a forest.
func Build(g *lgraph.LGraph) (*Index, error) {
	if !g.IsForest() {
		return nil, ErrNotForest
	}
	n := int32(g.NumNodes())
	idx := &Index{
		g:      g,
		pre:    make([]int32, n),
		depth:  make([]int32, n),
		parent: make([]int32, n),
		size:   make([]int32, n),
		byPre:  make([]int32, n),
	}
	for i := range idx.parent {
		idx.parent[i] = -1
	}
	var preCtr int32
	// Iterative DFS with an explicit phase per node: first visit assigns
	// pre, second assigns the subtree size.
	type frame struct {
		node int32
		next int // index into Succs
	}
	for _, root := range g.Roots() {
		stack := []frame{{node: root}}
		idx.pre[root] = preCtr
		idx.byPre[preCtr] = root
		preCtr++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			succs := g.Succs(f.node)
			if f.next < len(succs) {
				ch := succs[f.next]
				f.next++
				idx.parent[ch] = f.node
				idx.depth[ch] = idx.depth[f.node] + 1
				idx.pre[ch] = preCtr
				idx.byPre[preCtr] = ch
				preCtr++
				stack = append(stack, frame{node: ch})
				continue
			}
			sz := int32(1)
			for _, ch := range succs {
				sz += idx.size[ch]
			}
			idx.size[f.node] = sz
			stack = stack[:len(stack)-1]
		}
	}
	if preCtr != n {
		// IsForest should have caught this; keep the check as a guard
		// against builder bugs.
		return nil, ErrNotForest
	}
	idx.tagPre = csr.Group(g.NumTags(), func(add func(int32, int32)) {
		for p := int32(0); p < n; p++ {
			add(g.Tag(idx.byPre[p]), p)
		}
	})
	idx.finishDerived()
	return idx, nil
}

// finishDerived builds the enumeration acceleration structures from the
// core arrays (pre/depth/byPre/tagPre) of a forest Build numbered.
func (idx *Index) finishDerived() {
	n := int32(len(idx.byPre))
	depthOf := func(p int32) int32 { return idx.depth[idx.byPre[p]] }
	numDepths := int32(0)
	for _, d := range idx.depth {
		numDepths = max(numDepths, d+1)
	}
	idx.depthRuns = csr.Group(int(numDepths), func(add func(int32, int32)) {
		for p := int32(0); p < n; p++ {
			add(depthOf(p), p)
		}
	})
	idx.runsSorted = true
check:
	for d := int32(0); d < numDepths; d++ {
		run := idx.depthRuns.Row(d)
		for i := 1; i < len(run); i++ {
			if idx.byPre[run[i-1]] >= idx.byPre[run[i]] {
				idx.runsSorted = false
				break check
			}
		}
	}
	// A tagPre row sorted stably by depth is its runs back to back, since
	// its ranks ascend; a run ends where the depth changes.
	ranks := slices.Clone(idx.tagPre.Data)
	runDepth := csr.Rows[int32]{Off: make([]uint32, 1, idx.tagPre.Len()+1)}
	runStart := []uint32{0}
	for t := 0; t < idx.tagPre.Len(); t++ {
		lo, hi := idx.tagPre.Off[t], idx.tagPre.Off[t+1]
		slices.SortStableFunc(ranks[lo:hi], func(a, b int32) int { return cmp.Compare(depthOf(a), depthOf(b)) })
		for i := lo; i < hi; i++ {
			if i+1 == hi || depthOf(ranks[i+1]) != depthOf(ranks[i]) {
				runDepth.Data = append(runDepth.Data, depthOf(ranks[i]))
				runStart = append(runStart, i+1)
			}
		}
		runDepth.Off = append(runDepth.Off, uint32(len(runDepth.Data)))
	}
	idx.tagRunDepth = runDepth
	idx.tagRuns = csr.Rows[int32]{Off: runStart, Data: ranks}
}

// Name implements pathindex.Index.
func (idx *Index) Name() string { return "ppo" }

// NumNodes implements pathindex.Index.
func (idx *Index) NumNodes() int { return len(idx.pre) }

// Reachable reports whether x reaches y (descendants-or-self), in O(1):
// pre(y) falls in x's region [pre(x), pre(x)+size(x)).
func (idx *Index) Reachable(x, y int32) bool {
	px, py := idx.pre[x], idx.pre[y]
	return px <= py && py-px < idx.size[x]
}

// Distance returns the tree distance from x to y.
func (idx *Index) Distance(x, y int32) (int32, bool) {
	if !idx.Reachable(x, y) {
		return 0, false
	}
	return idx.depth[y] - idx.depth[x], true
}

// Region implements pathindex.Regioner: x's subtree is the preorder interval
// [pre(x), pre(x)+size(x)).
func (idx *Index) Region(x int32) pathindex.Span {
	lo := idx.pre[x]
	return pathindex.Span{Lo: lo, Hi: lo + idx.size[x]}
}

// Depth implements pathindex.Regioner: the tree depth of x (roots have
// depth 0).
func (idx *Index) Depth(x int32) int32 { return idx.depth[x] }

// EachReachable implements pathindex.Index.  The subtree of x is the
// preorder interval [pre(x), pre(x)+size(x)); walking the per-depth
// preorder runs emits it level by level — ascending distance — with one
// binary search per level and no per-query allocation.
func (idx *Index) EachReachable(x int32, fn pathindex.Visit) {
	lo := idx.pre[x]
	hi := lo + idx.size[x]
	if !idx.runsSorted {
		idx.emitInterval(x, idx.byPre[lo:hi], fn)
		return
	}
	base := idx.depth[x]
	remaining := idx.size[x]
	for d := base; remaining > 0 && int(d) < idx.depthRuns.Len(); d++ {
		run := idx.depthRuns.Row(d)
		for _, p := range run[pathindex.SearchGE(run, lo):] {
			if p >= hi {
				break
			}
			if !fn(idx.byPre[p], d-base) {
				return
			}
			remaining--
		}
	}
}

// distNode is one (distance, node) pair of the sort fallback.
type distNode struct{ d, n int32 }

// intervalScratch is the pooled buffer of the sort fallback; its capacity is
// retained across probes so the steady state allocates nothing.
type intervalScratch struct{ pairs []distNode }

// intervalPool holds the sort fallback's scratch for every index of the
// package, heap and compressed alike: a scratch holds (distance, node) pairs
// and nothing of the index that filled it, so one pool serves them all, and
// an index costs no pool of its own.
var intervalPool sync.Pool

func getInterval() *intervalScratch {
	sc, _ := intervalPool.Get().(*intervalScratch)
	if sc == nil {
		sc = &intervalScratch{}
	}
	return sc
}

// emitPairs sorts the collected pairs into ascending (distance, node) order,
// streams them, and returns the scratch to the pool.  Shared by the heap
// index and the compressed section view (csection.go).
func emitPairs(sc *intervalScratch, fn pathindex.Visit) {
	slices.SortFunc(sc.pairs, func(a, b distNode) int {
		if a.d != b.d {
			return int(a.d) - int(b.d)
		}
		return int(a.n) - int(b.n)
	})
	for _, p := range sc.pairs {
		if !fn(p.n, p.d) {
			break
		}
	}
	sc.pairs = sc.pairs[:0]
	intervalPool.Put(sc)
}

// emitInterval emits nodes (given directly) in ascending (distance, node)
// order relative to x — the sort fallback for graphs whose preorder is not
// node-ascending per depth.
func (idx *Index) emitInterval(x int32, nodes []int32, fn pathindex.Visit) {
	if len(nodes) == 0 {
		return
	}
	base := idx.depth[x]
	sc := getInterval()
	for _, n := range nodes {
		sc.pairs = append(sc.pairs, distNode{d: idx.depth[n] - base, n: n})
	}
	emitPairs(sc, fn)
}

// EachReachableByTag implements pathindex.Index using the per-tag depth
// runs: every run intersecting x's preorder interval is found with one
// binary search and streamed directly, already in ascending (distance,
// node) order.
func (idx *Index) EachReachableByTag(x int32, tag lgraph.Tag, fn pathindex.Visit) {
	if tag < 0 || int(tag) >= idx.tagPre.Len() {
		return
	}
	lo := idx.pre[x]
	hi := lo + idx.size[x]
	if !idx.runsSorted {
		ranks := idx.tagPre.Row(tag)
		base := idx.depth[x]
		sc := getInterval()
		for _, p := range ranks[pathindex.SearchGE(ranks, lo):] {
			if p >= hi {
				break
			}
			n := idx.byPre[p]
			sc.pairs = append(sc.pairs, distNode{d: idx.depth[n] - base, n: n})
		}
		emitPairs(sc, fn)
		return
	}
	base := idx.depth[x]
	for r := int32(idx.tagRunDepth.Off[tag]); r < int32(idx.tagRunDepth.Off[tag+1]); r++ {
		d := idx.tagRunDepth.Data[r]
		if d < base {
			continue // a subtree node is at least as deep as its root
		}
		run := idx.tagRuns.Row(r)
		for _, p := range run[pathindex.SearchGE(run, lo):] {
			if p >= hi {
				break
			}
			if !fn(idx.byPre[p], d-base) {
				return
			}
		}
	}
}

// EachReaching implements pathindex.Index: the ancestors-or-self of x are
// its parent chain, already in ascending distance order.
func (idx *Index) EachReaching(x int32, fn pathindex.Visit) {
	d := int32(0)
	for n := x; n != -1; n = idx.parent[n] {
		if !fn(n, d) {
			return
		}
		d++
	}
}

// EachReachingByTag implements pathindex.Index.
func (idx *Index) EachReachingByTag(x int32, tag lgraph.Tag, fn pathindex.Visit) {
	d := int32(0)
	for n := x; n != -1; n = idx.parent[n] {
		if idx.g.Tag(n) == tag {
			if !fn(n, d) {
				return
			}
		}
		d++
	}
}

// EachChild enumerates the children of x in preorder (all at distance 1).
func (idx *Index) EachChild(x int32, fn pathindex.Visit) {
	lo := idx.pre[x] + 1
	hi := idx.pre[x] + idx.size[x]
	for p := lo; p < hi; {
		ch := idx.byPre[p]
		if !fn(ch, 1) {
			return
		}
		p += idx.size[ch]
	}
}

// root returns the root of x's tree.
func (idx *Index) root(x int32) int32 {
	for idx.parent[x] != -1 {
		x = idx.parent[x]
	}
	return x
}

// EachFollowing enumerates the nodes after x in document order that are not
// descendants of x (the XPath following axis), restricted to x's own tree;
// distances are not defined for this axis and are reported as -1.
func (idx *Index) EachFollowing(x int32, fn pathindex.Visit) {
	r := idx.root(x)
	end := idx.pre[r] + idx.size[r]
	for p := idx.pre[x] + idx.size[x]; p < end; p++ {
		if !fn(idx.byPre[p], -1) {
			return
		}
	}
}

// EachPreceding enumerates the nodes before x in document order that are not
// ancestors of x (the XPath preceding axis), restricted to x's own tree.
func (idx *Index) EachPreceding(x int32, fn pathindex.Visit) {
	for p := idx.pre[idx.root(x)]; p < idx.pre[x]; p++ {
		n := idx.byPre[p]
		if idx.Reachable(n, x) {
			continue // ancestor, not preceding
		}
		if !fn(n, -1) {
			return
		}
	}
}

// postorder returns every node's postorder rank, from the forest identity
// post = pre + size - 1 - depth.
func (idx *Index) postorder() []int32 {
	post := make([]int32, len(idx.pre))
	for x, p := range idx.pre {
		post[x] = p + idx.size[x] - 1 - idx.depth[x]
	}
	return post
}

// EncodeStream writes the index's part of the canonical compact stream —
// pre, post, depth and parent per node, plus the per-tag preorder lists.  It
// is Table 1's size measure and the byte-identity form the determinism tests
// compare; nothing reads it back.
func (idx *Index) EncodeStream(sw *storage.SnapshotWriter) {
	sw.StreamHeader("ppo")
	sw.Uvarint(uint64(len(idx.pre)))
	sw.DeltaI32s(idx.pre)
	sw.DeltaI32s(idx.postorder())
	sw.DeltaI32s(idx.depth)
	sw.DeltaI32s(idx.parent)
	sw.Uvarint(uint64(idx.tagPre.Len()))
	for t := range int32(idx.tagPre.Len()) {
		sw.DeltaI32s(idx.tagPre.Row(t))
	}
}
