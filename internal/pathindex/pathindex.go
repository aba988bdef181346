// Package pathindex defines the contract every Path Indexing Strategy (PIS,
// FliX §3.2) fulfils, plus the strategy registry the Indexing Strategy
// Selector chooses from.
//
// An Index answers reachability, distance and "descendants by element name"
// queries over one meta document's local graph (an lgraph.LGraph).  All
// enumeration methods stream results through callbacks in ascending distance
// order (ties broken by node ID) — the order the Path Expression Evaluator
// relies on to produce approximately distance-ordered global results.
//
// `pathindex.Index` holds the evaluator's probes and nothing else.  What a
// strategy persists and reopens is the snapshot section it encodes through
// storage.SectionEncoder; the canonical stream Table 1 measures is written
// by the flix package, from the index types that can write it —
// `ppo.Index`, `hopi.Index`, `apex.Index` and `tc.Index`, each through its
// EncodeStream.  A probe's entry-point bookkeeping is a `pathindex.Span`: a
// local ID, a region or a rank.
//
// An index that numbers its forest by region encoding also implements
// Regioner (NumNodes, Region, Depth): y lies in x's subtree iff Region(x)
// holds Region(y).Lo, at distance Depth(y) − Depth(x).  That contract is all
// a LinkTable needs.  `pathindex.NewLinkTable` lays a meta document's runtime
// links out once, in the preorder-rank order of their sources — per link its
// target and its source's depth, per source its first link, and a rank
// directory (one bit per rank, a count per 64 ranks) that answers "first
// link whose source's rank is at least r" with one popcount.  Sweep turns
// Region(x) minus the caller's skip spans into at most len(skip)+1 ranges
// of link positions, so the evaluator's follow step walks links with no
// search and no callback.  The table is ≈ 8 B per link, 4 B per source and
// 12 B per 64 ranks; `TestLinkTableMatchesDistanceSweep` and `FuzzLinkTable`
// hold it to the per-source Distance sweep over every PPO view, and
// `TestLinkTableAllocFree` to 0 allocs/op.  Indexes without region encoding
// take `pathindex.LinkDistances`, one Distance per link source.
package pathindex

import (
	"math/bits"

	"repro/internal/lgraph"
)

// Visit receives one result node with its distance from the query node.
// Returning false stops the enumeration.
type Visit func(node, dist int32) bool

// Index is a connection index over one local graph: the exact set of
// operations the Path Expression Evaluator issues per frontier pop.
// Heap-built indexes (flix.Build) and the views over v2 snapshot sections
// (flix.OpenSnapshot) implement it alike, which is what makes generations
// interchangeable at query time: the evaluator, the partial driver and the
// sharded tier never learn where the bytes live.
//
//   - Reachability follows the descendants-or-self axis; every node
//     reaches itself at distance 0.
//   - Enumeration methods stream results in ascending (dist, node) order.
//   - Tags are the local graph's dictionary-compressed element names; a
//     negative tag matches nothing.
//   - Implementations must be safe for concurrent probes and must not
//     allocate on the steady-state enumeration path (pooled scratch only),
//     so the evaluator hot path stays 0 allocs/op over this interface.
type Index interface {
	// Name identifies the strategy (e.g. "ppo", "hopi", "apex").
	Name() string

	// NumNodes returns the number of nodes of the indexed graph.
	NumNodes() int

	// Reachable reports whether there is a (possibly empty) path x -> y.
	Reachable(x, y int32) bool

	// Distance returns the shortest-path distance from x to y, and false
	// if y is not reachable from x.
	Distance(x, y int32) (int32, bool)

	// EachReachable enumerates every node reachable from x (including x,
	// at distance 0) in ascending distance order.
	EachReachable(x int32, fn Visit)

	// EachReachableByTag enumerates the reachable nodes carrying tag, in
	// ascending distance order, descendants-or-self semantics.
	EachReachableByTag(x int32, tag lgraph.Tag, fn Visit)

	// EachReaching enumerates every node that reaches x (the
	// ancestors-or-self axis), in ascending distance order.
	EachReaching(x int32, fn Visit)

	// EachReachingByTag is EachReaching restricted to one tag.
	EachReachingByTag(x int32, tag lgraph.Tag, fn Visit)
}

// LinkDistances probes one fixed element x against every runtime-link source
// of a meta document, in source order: fn receives the position of each
// source x reaches in sources together with its distance from x; returning
// false stops the sweep.  It is the evaluator's follow step for an index
// without region encoding.
func LinkDistances(idx Index, x int32, sources []int32, fn func(i int, d int32) bool) {
	for i, y := range sources {
		if d, ok := idx.Distance(x, y); ok {
			if !fn(i, d) {
				return
			}
		}
	}
}

// Span is the half-open interval [Lo, Hi) of preorder ranks — or, as
// LinkTable.Sweep returns it, of link positions.  Under region encoding an
// element's subtree is one span — its preorder rank and subtree size — so
// "x reaches y" is "x's span holds pre(y)".
type Span struct{ Lo, Hi int32 }

// Regioner is the contract of an index that numbers its local graph by
// region encoding (PPO): x reaches y iff Region(x) holds Region(y).Lo, and
// then dist(x, y) = Depth(y) - Depth(x).  The ranks are 0 to NumNodes()-1.
// The evaluator resolves it once per meta document: coverage becomes one
// binary search over sorted spans and ranks, and the link sweep a LinkTable.
type Regioner interface {
	NumNodes() int
	Region(x int32) Span
	Depth(x int32) int32
}

// LinkTable is the link sweep of one region-encoded meta document.  Its
// runtime links never change after the build, so they are laid out once, when
// the table is built, in the preorder-rank order of their sources — one
// source's links in the order given — with a target and the source's depth per
// link.  The links x reaches are then those of the sources whose ranks
// Region(x) holds: one range of link positions, cut by each skipped span.
//
// A rank directory finds where a range starts without a search: one bit per
// preorder rank marks the link sources, and every 64 ranks store how many
// sources lie below them, so "the first link whose source's rank is at least
// r" is one popcount, the directory word and the source's first-link offset.
type LinkTable struct {
	rg    Regioner
	to    []int32 // to[j]: the target of link j, opaque to this package
	dep   []int32 // dep[j]: the depth of link j's source
	first []int32 // first[s]: the position of the first link of the s-th source by rank; first[sources] closes the last
	// dir holds three words per 64 ranks: the number of sources of rank
	// below 64w, then the low and high halves of the ranks' source bits.
	dir []int32
}

// NewLinkTable builds the link table of the runtime links of sources, or
// returns nil when there are none.  The links of sources[i] are numbered
// first[i] to first[i+1]-1 (first has one more entry than sources), and
// target(k) is the target of link k, stored as given.  Every array shares one
// allocation.
func NewLinkTable(rg Regioner, sources, first []int32, target func(k int) int32) *LinkTable {
	if len(sources) == 0 {
		return nil
	}
	nl, ns, nd := int(first[len(sources)]-first[0]), len(sources), 3*(rg.NumNodes()>>6+1)
	a := make([]int32, 2*nl+ns+1+nd)
	t := &LinkTable{rg: rg, to: a[:nl:nl], dep: a[nl : 2*nl : 2*nl], first: a[2*nl : 2*nl+ns+1 : 2*nl+ns+1], dir: a[2*nl+ns+1:]}
	// PPO numbers a forest in node order, so the ranks usually ascend in
	// source order already and one pass fills the table.
	j, last := int32(0), int32(-1)
	for i, y := range sources {
		pre := rg.Region(y).Lo
		if pre <= last {
			t.fillByRank(sources, first, target)
			return t
		}
		last = pre
		t.mark(pre)
		t.first[i] = j
		j = t.fill(j, rg.Depth(y), first[i], first[i+1], target)
	}
	t.first[ns] = int32(nl)
	t.count()
	return t
}

// mark sets the source bit of rank pre.
func (t *LinkTable) mark(pre int32) {
	t.dir[3*(pre>>6)+1+(pre>>5&1)] |= int32(uint32(1) << (pre & 31))
}

// count writes the directory's source counts once every bit is set.
func (t *LinkTable) count() {
	n := int32(0)
	for w := 0; w < len(t.dir); w += 3 {
		t.dir[w] = n
		n += int32(bits.OnesCount32(uint32(t.dir[w+1])) + bits.OnesCount32(uint32(t.dir[w+2])))
	}
}

// below returns the number of sources ranked below r.
func (t *LinkTable) below(r int32) int32 {
	w := 3 * (r >> 6)
	set := uint64(uint32(t.dir[w+1])) | uint64(uint32(t.dir[w+2]))<<32
	return t.dir[w] + int32(bits.OnesCount64(set&(1<<(r&63)-1)))
}

// fill lays out the links k0 to k1-1 of one source of depth d from link
// position j on, and returns the position after them.
func (t *LinkTable) fill(j, d, k0, k1 int32, target func(k int) int32) int32 {
	for k := k0; k < k1; k++ {
		t.to[j], t.dep[j] = target(int(k)), d
		j++
	}
	return j
}

// fillByRank fills the table from sources whose ranks do not ascend in
// source order, without sorting them: once every source's bit is set, the
// directory gives each source its position by rank, the link counts summed
// in that order give the first-link offsets, and each source's links go to
// its offset.
func (t *LinkTable) fillByRank(sources, first []int32, target func(k int) int32) {
	at := make([]int32, len(sources)) // the rank of sources[i], then its position by rank
	for i, y := range sources {
		at[i] = t.rg.Region(y).Lo
		t.mark(at[i])
	}
	t.count()
	t.first[0] = 0
	for i, pre := range at {
		at[i] = t.below(pre)
		t.first[at[i]+1] = first[i+1] - first[i]
	}
	for s := range len(sources) {
		t.first[s+1] += t.first[s]
	}
	for i, y := range sources {
		t.fill(t.first[at[i]], t.rg.Depth(y), first[i], first[i+1], target)
	}
}

// First returns the position of the first link whose source's preorder rank
// is at least r, for 0 <= r <= NumNodes(): the number of links of the sources
// ranked below r.
func (t *LinkTable) First(r int32) int32 { return t.first[t.below(r)] }

// Links returns the per-link arrays: the target of every link and the depth
// of its source, by link position.
func (t *LinkTable) Links() (to, dep []int32) { return t.to, t.dep }

// Depth returns the depth of element x: a link j that x reaches is
// dep[j] - Depth(x) away from it.
func (t *LinkTable) Depth(x int32) int32 { return t.rg.Depth(x) }

// Sweep appends to out the ranges of link positions whose sources x reaches,
// except those whose preorder rank lies in a span of skip, and returns out:
// ascending, at most len(skip)+1 ranges, none empty.  skip is ascending and
// disjoint, its spans within [0, NumNodes()]; the evaluator passes the
// regions of the earlier entry points nested in x's, whose links were swept
// already.
func (t *LinkTable) Sweep(x int32, skip []Span, out []Span) []Span {
	region := t.rg.Region(x)
	lo := region.Lo
	for _, sp := range skip {
		if sp.Lo >= region.Hi {
			break
		}
		if sp.Lo > lo {
			out = t.appendRange(out, lo, sp.Lo)
		}
		lo = max(lo, sp.Hi)
	}
	if lo < region.Hi {
		out = t.appendRange(out, lo, region.Hi)
	}
	return out
}

// appendRange appends the link positions of the sources ranked in [lo, hi)
// to out unless there are none.
func (t *LinkTable) appendRange(out []Span, lo, hi int32) []Span {
	if a, b := t.First(lo), t.First(hi); a < b {
		out = append(out, Span{a, b})
	}
	return out
}

// SearchGE returns the index of the first element >= v in the ascending
// slice a: the binary search over preorder ranks that region-encoded probes
// run.  Unlike slices.BinarySearch it is inlined at its call sites.
func SearchGE(a []int32, v int32) int {
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

// Builder constructs an Index for a local graph.  Builders may fail, e.g.
// PPO refuses non-forest graphs.
type Builder func(g *lgraph.LGraph) (Index, error)

// Strategy pairs a strategy name with its builder and the structural
// constraints the Indexing Strategy Selector checks.
type Strategy struct {
	// Name is the registry key.
	Name string
	// Build constructs the index.
	Build Builder
	// RequiresForest marks strategies (PPO) that only work when the local
	// graph is a forest.
	RequiresForest bool
}
