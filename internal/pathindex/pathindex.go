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
// Index holds the evaluator's probes and nothing else.  What a strategy
// persists and reopens is the snapshot section it encodes through
// storage.SectionEncoder; the canonical stream Table 1 measures is written
// by the flix package, from the index types that can write it.
package pathindex

import (
	"slices"

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

// Span is the half-open preorder interval [Lo, Hi).  Under region encoding
// an element's subtree is one span — its preorder rank and subtree size — so
// "x reaches y" is "x's span holds pre(y)".
type Span struct{ Lo, Hi int32 }

// Regioner is the contract of an index that numbers its local graph by
// region encoding (PPO): x reaches y iff Region(x) holds Region(y).Lo, and
// then dist(x, y) = Depth(y) - Depth(x).  The evaluator resolves it once per
// meta document: coverage becomes one binary search over sorted spans and
// ranks, and the link sweep a LinkTable.
type Regioner interface {
	Region(x int32) Span
	Depth(x int32) int32
}

// LinkTable is the link sweep of one region-encoded meta document.  Its
// runtime-link sources never change after the build, so their preorder ranks
// and depths are read once, when the table is built, into plain arrays
// sorted by rank.  Which sources x reaches is then an interval question —
// the ranks Region(x) holds — answered by a binary search instead of a
// Distance test per source: the evaluator's follow step costs what it hits,
// not the meta document's link count.  A skipped span costs one binary
// search, however many sources it holds.
type LinkTable struct {
	rg  Regioner
	pre []int32 // the sources' preorder ranks, ascending
	pos []int32 // pos[k]: the position in the source list of rank pre[k]
	dep []int32 // dep[k]: the depth of the source of rank pre[k]
}

// NewLinkTable builds the link table over sources, or returns nil when there
// are none.  The three arrays share one allocation.
func NewLinkTable(rg Regioner, sources []int32) *LinkTable {
	if len(sources) == 0 {
		return nil
	}
	n := len(sources)
	arrays := make([]int32, 3*n)
	t := &LinkTable{rg: rg, pre: arrays[:n:n], pos: arrays[n : 2*n : 2*n], dep: arrays[2*n:]}
	// PPO numbers a forest in node order, so the ranks usually ascend in
	// source order already and one pass fills the table.
	for i, y := range sources {
		pre := rg.Region(y).Lo
		if i > 0 && pre <= t.pre[i-1] {
			t.fillSorted(sources)
			return t
		}
		t.pre[i], t.pos[i], t.dep[i] = pre, int32(i), rg.Depth(y)
	}
	return t
}

// fillSorted fills the table from sources whose ranks do not ascend in
// source order.  Each source is the key rank<<32 | position; ranks are
// distinct, so sorting the keys orders the sources by rank without a
// comparator.
func (t *LinkTable) fillSorted(sources []int32) {
	keys := make([]uint64, len(sources))
	for i, y := range sources {
		keys[i] = uint64(uint32(t.rg.Region(y).Lo))<<32 | uint64(i)
	}
	slices.Sort(keys)
	for k, key := range keys {
		i := int32(uint32(key))
		t.pre[k], t.pos[k], t.dep[k] = int32(key>>32), i, t.rg.Depth(sources[i])
	}
}

// Each calls fn(i, d) for every source i of the table's list that x reaches,
// d being its distance from x — the hits of LinkDistances over the same
// sources — except the sources whose preorder rank lies in a span of skip.
// skip is ascending and disjoint; the evaluator passes the regions of the
// earlier entry points nested in x's, whose sources were swept already.  Hits
// arrive each once, in ascending preorder rank, until fn returns false.
func (t *LinkTable) Each(x int32, skip []Span, fn func(i int, d int32) bool) {
	region, dx := t.rg.Region(x), t.rg.Depth(x)
	k := SearchGE(t.pre, region.Lo)
	ok := true
	for _, sp := range skip {
		if k, ok = t.emit(k, min(sp.Lo, region.Hi), dx, fn); !ok {
			return
		}
		k += SearchGE(t.pre[k:], sp.Hi)
	}
	t.emit(k, region.Hi, dx, fn)
}

// emit calls fn for the sources from rank position k while their rank is
// below end.  It returns the position it stopped at, and false when fn did.
func (t *LinkTable) emit(k int, end, dx int32, fn func(i int, d int32) bool) (int, bool) {
	for ; k < len(t.pre) && t.pre[k] < end; k++ {
		if !fn(int(t.pos[k]), t.dep[k]-dx) {
			return k, false
		}
	}
	return k, true
}

// SearchGE returns the index of the first element >= v in the ascending
// slice a: the binary search over preorder ranks that region-encoded probes
// and the link sweep run.  Unlike slices.BinarySearch it is inlined at its
// call sites, which the link sweep measurably needs.
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
