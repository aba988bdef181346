// Package ppo implements the pre-/postorder path index of Grust (SIGMOD
// 2002), the PPO strategy of FliX (§2.2).
//
// The index assigns every node of a forest its preorder and postorder rank
// from one depth-first traversal.  A node x reaches y iff
// pre(x) <= pre(y) and post(x) >= post(y); the distance between them is the
// depth difference.  Building takes O(E) time and the index stores a
// constant number of integers per node, which makes PPO the cheapest
// strategy — but it is only applicable when the meta document's data graph
// is a forest (no element with two incoming edges, no cycles).
package ppo

import (
	"errors"
	"io"
	"slices"
	"sort"
	"sync"

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
	post   []int32 // postorder rank per node
	depth  []int32 // tree depth per node (roots have 0)
	parent []int32 // parent per node (-1 for roots)
	size   []int32 // subtree size per node (including the node)
	byPre  []int32 // node at each preorder rank (inverse of pre)

	// tagPre[t] lists the preorder ranks of the nodes with tag t,
	// ascending; used for the a//b range scan.
	tagPre [][]int32

	// The fields below are derived by finishDerived at build/load time and
	// are not serialized — WriteTo's byte format is unchanged.
	//
	// depthRuns[d] lists the preorder ranks of the nodes at depth d,
	// ascending.  A subtree is the preorder interval [pre(x), pre(x)+size),
	// so enumerating it in ascending distance order is one binary search
	// per depth level instead of bucketing the whole interval into a
	// per-query map — the enumeration probe allocates nothing.
	depthRuns [][]int32
	// tagDepth[t] groups tagPre[t] by depth: runs in ascending depth
	// order, each run's pre-ranks ascending.
	tagDepth [][]depthRun
	// runsSorted reports that byPre is node-ascending within every depth
	// run, which makes the run-scan emission order satisfy the
	// interface's (dist, node) contract without a per-query sort.  It
	// holds for most forests the meta-document builder produces; the
	// sort fallback covers the general case.
	runsSorted bool

	// scratch pools intervalScratch values for the sort fallback so its
	// steady state allocates nothing either.
	scratch sync.Pool
}

// depthRun is the preorder ranks of one tag at one depth.
type depthRun struct {
	depth int32
	pres  []int32
}

var _ pathindex.Index = (*Index)(nil)

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
		post:   make([]int32, n),
		depth:  make([]int32, n),
		parent: make([]int32, n),
		size:   make([]int32, n),
		byPre:  make([]int32, n),
	}
	for i := range idx.parent {
		idx.parent[i] = -1
	}
	var preCtr, postCtr int32
	// Iterative DFS with an explicit phase per node: first visit assigns
	// pre, second assigns post and subtree size.
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
			idx.post[f.node] = postCtr
			postCtr++
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
	idx.tagPre = make([][]int32, g.NumTags())
	for p := int32(0); p < n; p++ {
		t := g.Tag(idx.byPre[p])
		idx.tagPre[t] = append(idx.tagPre[t], p)
	}
	idx.finishDerived()
	return idx, nil
}

// finishDerived builds the enumeration acceleration structures from the
// core arrays (pre/depth/byPre/tagPre).
func (idx *Index) finishDerived() {
	n := len(idx.byPre)
	maxDepth := int32(-1)
	for _, d := range idx.depth {
		if d < 0 || int(d) >= n {
			// A depth outside [0, n) cannot come from a real forest — a
			// corrupted snapshot reached us.  Leave the acceleration
			// structures unbuilt; queries take the bucket-sort fallback.
			return
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	for _, ranks := range idx.tagPre {
		for _, p := range ranks {
			if p < 0 || int(p) >= n {
				return // corrupted snapshot; same fallback as above
			}
		}
	}
	idx.depthRuns = make([][]int32, maxDepth+1)
	for p := 0; p < n; p++ {
		d := idx.depth[idx.byPre[p]]
		idx.depthRuns[d] = append(idx.depthRuns[d], int32(p))
	}
	idx.runsSorted = true
check:
	for _, run := range idx.depthRuns {
		for i := 1; i < len(run); i++ {
			if idx.byPre[run[i-1]] >= idx.byPre[run[i]] {
				idx.runsSorted = false
				break check
			}
		}
	}
	idx.tagDepth = make([][]depthRun, len(idx.tagPre))
	for t, ranks := range idx.tagPre {
		if len(ranks) == 0 {
			continue
		}
		sorted := make([]int32, len(ranks))
		copy(sorted, ranks)
		depthOf := func(p int32) int32 { return idx.depth[idx.byPre[p]] }
		sort.Slice(sorted, func(i, j int) bool {
			di, dj := depthOf(sorted[i]), depthOf(sorted[j])
			if di != dj {
				return di < dj
			}
			return sorted[i] < sorted[j]
		})
		var runs []depthRun
		start := 0
		for i := 1; i <= len(sorted); i++ {
			if i == len(sorted) || depthOf(sorted[i]) != depthOf(sorted[start]) {
				runs = append(runs, depthRun{depth: depthOf(sorted[start]), pres: sorted[start:i]})
				start = i
			}
		}
		idx.tagDepth[t] = runs
	}
}

// searchGE returns the index of the first element >= v in the ascending
// slice a — sort.Search without the closure, so enumeration probes stay
// allocation-free even if escape analysis changes.
func searchGE(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Name implements pathindex.Index.
func (idx *Index) Name() string { return "ppo" }

// NumNodes implements pathindex.Index.
func (idx *Index) NumNodes() int { return len(idx.pre) }

// Reachable reports whether x reaches y (descendants-or-self), in O(1).
func (idx *Index) Reachable(x, y int32) bool {
	return idx.pre[x] <= idx.pre[y] && idx.post[x] >= idx.post[y]
}

// Distance returns the tree distance from x to y.
func (idx *Index) Distance(x, y int32) (int32, bool) {
	if !idx.Reachable(x, y) {
		return 0, false
	}
	return idx.depth[y] - idx.depth[x], true
}

// linkTable is the pathindex.LinkTable of a heap or raw-mapped PPO index.
type linkTable struct {
	idx *Index
	linkSweep
}

// LinkTable implements pathindex.LinkTabler.
func (idx *Index) LinkTable(sources []int32) pathindex.LinkTable {
	t := &linkTable{idx: idx}
	t.build(sources, func(y int32) (int32, int32) { return idx.pre[y], idx.depth[y] })
	return t
}

// LinkDistancesTo implements pathindex.LinkTable.
func (t *linkTable) LinkDistancesTo(x int32, fn func(i int, d int32) bool) {
	idx := t.idx
	t.each(idx.pre[x], idx.size[x], idx.depth[x], fn)
}

// Depth returns the tree depth of x (roots have depth 0).
func (idx *Index) Depth(x int32) int32 { return idx.depth[x] }

// Parent returns the parent of x, or -1.
func (idx *Index) Parent(x int32) int32 { return idx.parent[x] }

// Pre returns the preorder rank of x.
func (idx *Index) Pre(x int32) int32 { return idx.pre[x] }

// Post returns the postorder rank of x.
func (idx *Index) Post(x int32) int32 { return idx.post[x] }

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
	for d := base; remaining > 0 && int(d) < len(idx.depthRuns); d++ {
		run := idx.depthRuns[d]
		for _, p := range run[searchGE(run, lo):] {
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

func getInterval(pool *sync.Pool) *intervalScratch {
	sc, _ := pool.Get().(*intervalScratch)
	if sc == nil {
		sc = &intervalScratch{}
	}
	return sc
}

func (idx *Index) getInterval() *intervalScratch { return getInterval(&idx.scratch) }

// emitPairs sorts the collected pairs into ascending (distance, node) order,
// streams them, and returns the scratch to the pool.  Shared by the heap
// index and the compressed section view (csection.go).
func emitPairs(pool *sync.Pool, sc *intervalScratch, fn pathindex.Visit) {
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
	pool.Put(sc)
}

func (idx *Index) emitPairs(sc *intervalScratch, fn pathindex.Visit) {
	emitPairs(&idx.scratch, sc, fn)
}

// emitInterval emits nodes (given directly) in ascending (distance, node)
// order relative to x — the sort fallback for graphs whose preorder is not
// node-ascending per depth.
func (idx *Index) emitInterval(x int32, nodes []int32, fn pathindex.Visit) {
	if len(nodes) == 0 {
		return
	}
	base := idx.depth[x]
	sc := idx.getInterval()
	for _, n := range nodes {
		sc.pairs = append(sc.pairs, distNode{d: idx.depth[n] - base, n: n})
	}
	idx.emitPairs(sc, fn)
}

// EachReachableByTag implements pathindex.Index using the per-tag depth
// runs: every run intersecting x's preorder interval is found with one
// binary search and streamed directly, already in ascending (distance,
// node) order.
func (idx *Index) EachReachableByTag(x int32, tag lgraph.Tag, fn pathindex.Visit) {
	if tag < 0 || int(tag) >= len(idx.tagPre) {
		return
	}
	lo := idx.pre[x]
	hi := lo + idx.size[x]
	if !idx.runsSorted {
		ranks := idx.tagPre[tag]
		base := idx.depth[x]
		sc := idx.getInterval()
		for _, p := range ranks[searchGE(ranks, lo):] {
			if p >= hi {
				break
			}
			n := idx.byPre[p]
			sc.pairs = append(sc.pairs, distNode{d: idx.depth[n] - base, n: n})
		}
		idx.emitPairs(sc, fn)
		return
	}
	base := idx.depth[x]
	for _, run := range idx.tagDepth[tag] {
		if run.depth < base {
			continue // a subtree node is at least as deep as its root
		}
		for _, p := range run.pres[searchGE(run.pres, lo):] {
			if p >= hi {
				break
			}
			if !fn(idx.byPre[p], run.depth-base) {
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

// WriteTo emits the canonical compact stream — pre, post, depth and parent
// per node, plus the per-tag preorder lists.  It is Table 1's size measure
// and the byte-identity form the determinism tests compare; nothing reads it
// back.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	sw := storage.NewWriter(w)
	sw.Header("ppo")
	sw.Uvarint(uint64(len(idx.pre)))
	sw.Int32Slice(idx.pre)
	sw.Int32Slice(idx.post)
	sw.Int32Slice(idx.depth)
	sw.Int32Slice(idx.parent)
	sw.Uvarint(uint64(len(idx.tagPre)))
	for _, ranks := range idx.tagPre {
		sw.Int32Slice(ranks)
	}
	return sw.Flush()
}
