package ppo

import (
	"cmp"
	"slices"

	"repro/internal/pathindex"
)

// linkSweep is the source side of a PPO link table, shared by the heap or
// raw-mapped view (linkTable) and the compressed one (clinkTable).  Which
// link sources an element x reaches is an interval question — y lies in x's
// subtree iff pre(y) falls in [pre(x), pre(x)+size(x)), the region encoding
// of pre/post indexes — so the sources are sorted by preorder rank once, when
// the table is built, and a sweep binary-searches the interval instead of
// testing every source: the evaluator's follow step costs what it hits, not
// the meta document's link count.  The sub-intervals a sweep is told to skip
// cost one binary search each, however many sources they hold.
type linkSweep struct {
	pre []int32 // the sources' preorder ranks, ascending
	pos []int32 // pos[k]: the position in the source list of rank pre[k]
	dep []int32 // dep[k]: the depth of the source of rank pre[k]
}

// build fills the sweep for sources; at returns a source's preorder rank and
// depth.
func (t *linkSweep) build(sources []int32, at func(y int32) (pre, depth int32)) {
	byPos := make([]int32, len(sources))
	depth := make([]int32, len(sources))
	t.pos = make([]int32, len(sources))
	for i, y := range sources {
		byPos[i], depth[i] = at(y)
		t.pos[i] = int32(i)
	}
	slices.SortFunc(t.pos, func(a, b int32) int { return cmp.Compare(byPos[a], byPos[b]) })
	t.pre = make([]int32, len(sources))
	t.dep = make([]int32, len(sources))
	for k, i := range t.pos {
		t.pre[k], t.dep[k] = byPos[i], depth[i]
	}
}

// each calls fn(i, depth(source i) - dx) for every source i whose preorder
// rank lies in region and in no span of skip (ascending, disjoint), in
// ascending rank, until fn returns false.
func (t *linkSweep) each(region pathindex.Span, dx int32, skip []pathindex.Span, fn func(i int, d int32) bool) {
	k, ok := searchGE(t.pre, region.Lo), true
	for _, sp := range skip {
		if k, ok = t.emit(k, min(sp.Lo, region.Hi), dx, fn); !ok {
			return
		}
		k += searchGE(t.pre[k:], sp.Hi)
	}
	t.emit(k, region.Hi, dx, fn)
}

// emit calls fn for the sources from rank position k while their rank is
// below end.  It returns the position it stopped at, and false when fn did.
func (t *linkSweep) emit(k int, end, dx int32, fn func(i int, d int32) bool) (int, bool) {
	for ; k < len(t.pre) && t.pre[k] < end; k++ {
		if !fn(int(t.pos[k]), t.dep[k]-dx) {
			return k, false
		}
	}
	return k, true
}
