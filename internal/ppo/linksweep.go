package ppo

import (
	"cmp"
	"math/bits"
	"slices"
)

// linkSweep is the source side of a PPO link table, shared by the heap or
// raw-mapped view (linkTable) and the compressed one (clinkTable).  Which
// link sources an element x reaches is an interval question — y lies in x's
// subtree iff pre(y) falls in [pre(x), pre(x)+size(x)), the region encoding
// of pre/post indexes — so the sources are sorted by preorder rank once, when
// the table is built, and a sweep binary-searches the interval instead of
// testing every source: the evaluator's follow step costs what it hits, not
// the meta document's link count.  The hits still reach fn in source order,
// the order a per-source Distance sweep emits them in.
type linkSweep struct {
	pre []int32 // the sources' preorder ranks, ascending
	pos []int32 // pos[k]: the position in the source list of rank pre[k]
	dep []int32 // dep[i]: the depth of source i
}

// build fills the sweep for sources; at returns a source's preorder rank and
// depth.
func (t *linkSweep) build(sources []int32, at func(y int32) (pre, depth int32)) {
	byPos := make([]int32, len(sources))
	t.dep = make([]int32, len(sources))
	t.pos = make([]int32, len(sources))
	for i, y := range sources {
		byPos[i], t.dep[i] = at(y)
		t.pos[i] = int32(i)
	}
	slices.SortFunc(t.pos, func(a, b int32) int { return cmp.Compare(byPos[a], byPos[b]) })
	t.pre = make([]int32, len(sources))
	for k, i := range t.pos {
		t.pre[k] = byPos[i]
	}
}

// each calls fn(i, depth(source i) - dx) for every source i whose preorder
// rank lies in [lo, lo+size), in ascending i, until fn returns false.  One
// binary search finds the first hit and the others follow it in rank order;
// their positions, scattered wherever a meta document's included links hang
// one document's tree under another's, are gathered into a bitset over a
// window of positions and emitted in ascending order, window by window.
func (t *linkSweep) each(lo, size, dx int32, fn func(i int, d int32) bool) {
	a, hi := searchGE(t.pre, lo), lo+size
	b, first, last := a, int32(len(t.pos)), int32(-1)
	for ; b < len(t.pre) && t.pre[b] < hi; b++ {
		first, last = min(first, t.pos[b]), max(last, t.pos[b])
	}
	hits := t.pos[a:b]
	var set [8]uint64
	const window = int32(len(set) * 64)
	for base := first; base <= last; base += window {
		for _, i := range hits {
			if off := i - base; off >= 0 && off < window {
				set[off>>6] |= 1 << (off & 63)
			}
		}
		for w := range set[:min(len(set), int(last-base)>>6+1)] {
			for word := set[w]; word != 0; word &= word - 1 {
				i := int(base) + w<<6 + bits.TrailingZeros64(word)
				if !fn(i, t.dep[i]-dx) {
					return
				}
			}
			set[w] = 0
		}
	}
}
