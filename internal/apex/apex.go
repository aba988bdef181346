// Package apex implements an APEX-style adaptive path index (Chung et al.,
// SIGMOD 2002) in its base form APEX-0, i.e. without the workload-driven
// refinement for frequent queries — matching the comparator used in the FliX
// experiments ("a database-backed implementation of APEX without
// optimizations for frequent queries", §6).
//
// The index consists of a structural summary — the quotient of the data
// graph under backward bisimulation (nodes are equivalent when they carry
// the same tag and are reached by the same label paths) — together with the
// extent of every summary class and the data-graph adjacency.  Label-path
// queries (//a/b/c) are answered exactly on the summary alone.  Queries
// anchored at a single element (the descendants-or-self workload FliX cares
// about) fall back to a summary-pruned traversal of the data edges: the
// summary tells which classes can still reach the wanted tag, so whole
// branches are skipped, but the per-element work remains proportional to the
// traversed subgraph.  This is precisely why APEX "is not explicitly
// optimized for the descendants-or-self axis" (§2.2) — the behaviour the
// experiments reproduce.
package apex

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

// Index is an APEX-0 structural summary index.
type Index struct {
	g *lgraph.LGraph

	// class[v] is the summary class of data node v.
	class []int32
	// extents[c] lists the data nodes of class c, ascending.
	extents [][]int32
	// classTag[c] is the common tag of class c.
	classTag []lgraph.Tag
	// classSucc[c] lists the successor classes of c in the summary graph.
	classSucc [][]int32
	classPred [][]int32
	// reachTags[c] is a bitset over tags: which tags are reachable from
	// class c (including c's own tag).  reachedTags is the reverse.
	reachTags, reachedTags []bitset

	// bfs pools bfsScratch values so steady-state traversal probes
	// allocate nothing.
	bfs sync.Pool
}

// bfsScratch is the reusable state of one levelBFS: the visited table is
// stamped with a per-use tick (clearing it between probes is bumping the
// tick), and the two level slices retain their capacity.
type bfsScratch struct {
	seen        []int64
	tick        int64
	level, next []int32
}

var _ pathindex.Index = (*Index)(nil)

// Strategy is the registry entry for APEX (full refinement).
var Strategy = pathindex.Strategy{
	Name:  "apex",
	Build: func(g *lgraph.LGraph) (pathindex.Index, error) { return Build(g), nil },
}

// StrategyK returns a registry entry for the A(k) variant, named "a<k>".
func StrategyK(k int) pathindex.Strategy {
	return pathindex.Strategy{
		Name:  fmt.Sprintf("a%d", k),
		Build: func(g *lgraph.LGraph) (pathindex.Index, error) { return BuildK(g, k), nil },
	}
}

// Build constructs the full index (refinement to the fixpoint, i.e. the
// 1-index / complete backward bisimulation).
func Build(g *lgraph.LGraph) *Index {
	return BuildK(g, 0)
}

// BuildK constructs the A(k)-index variant (Kaushik et al.'s Index
// Definition Scheme, §2.2 of the FliX paper): the bisimulation refinement
// stops after k rounds, so two elements share a class iff their incoming
// label paths agree up to length k.  k <= 0 refines to the fixpoint.
//
// A truncated summary is coarser: extents merge structurally different
// elements and PathExtent answers are exact only for paths up to length k.
// The element-anchored queries stay exact regardless — the summary is a
// simulation of the data graph at any k, so its pruning sets are safe
// supersets and the data-edge traversal confirms every answer.
func BuildK(g *lgraph.LGraph, k int) *Index {
	idx := &Index{g: g}
	idx.partition(k)
	idx.buildSummary()
	idx.buildTagReach()
	return idx
}

// partition computes the backward-bisimulation classes by iterated signature
// refinement: start with one class per tag (round 0), then split classes
// until two nodes share a class iff they have the same tag and the same set
// of predecessor classes.  maxRounds > 0 truncates the refinement (the A(k)
// index); otherwise it runs to the fixpoint.
func (idx *Index) partition(maxRounds int) {
	g := idx.g
	n := g.NumNodes()
	class := make([]int32, n)
	for v := 0; v < n; v++ {
		class[v] = int32(g.Tag(int32(v)))
	}
	numClasses := g.NumTags()
	type sig struct {
		tag   lgraph.Tag
		preds string // sorted predecessor classes, varint-packed
	}
	buf := make([]byte, 0, 64)
	for round := 0; maxRounds <= 0 || round < maxRounds; round++ {
		next := make(map[sig]int32)
		newClass := make([]int32, n)
		for v := 0; v < n; v++ {
			preds := g.Preds(int32(v))
			cs := make([]int32, 0, len(preds))
			for _, p := range preds {
				cs = append(cs, class[p])
			}
			sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
			buf = buf[:0]
			prev := int32(-1)
			for _, c := range cs {
				if c == prev {
					continue // predecessor class sets, not multisets
				}
				prev = c
				buf = append(buf, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
			}
			s := sig{tag: g.Tag(int32(v)), preds: string(buf)}
			id, ok := next[s]
			if !ok {
				id = int32(len(next))
				next[s] = id
			}
			newClass[v] = id
		}
		if len(next) == numClasses {
			class = newClass
			break
		}
		numClasses = len(next)
		class = newClass
	}
	idx.class = class
	idx.extents = make([][]int32, numClasses)
	idx.classTag = make([]lgraph.Tag, numClasses)
	for v := 0; v < n; v++ {
		c := class[v]
		idx.extents[c] = append(idx.extents[c], int32(v))
		idx.classTag[c] = g.Tag(int32(v))
	}
}

// buildSummary derives the summary graph edges from the data edges.
func (idx *Index) buildSummary() {
	g := idx.g
	numClasses := len(idx.extents)
	succSets := make([]map[int32]struct{}, numClasses)
	predSets := make([]map[int32]struct{}, numClasses)
	for i := range succSets {
		succSets[i] = make(map[int32]struct{})
		predSets[i] = make(map[int32]struct{})
	}
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		cu := idx.class[u]
		for _, v := range g.Succs(u) {
			cv := idx.class[v]
			succSets[cu][cv] = struct{}{}
			predSets[cv][cu] = struct{}{}
		}
	}
	idx.classSucc = make([][]int32, numClasses)
	idx.classPred = make([][]int32, numClasses)
	for c := 0; c < numClasses; c++ {
		idx.classSucc[c] = setToSorted(succSets[c])
		idx.classPred[c] = setToSorted(predSets[c])
	}
}

func setToSorted(s map[int32]struct{}) []int32 {
	out := make([]int32, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// buildTagReach computes, per class, the set of tags reachable in the
// summary graph (forward and backward), by fixpoint propagation — the
// summary can be cyclic.
func (idx *Index) buildTagReach() {
	numClasses := len(idx.extents)
	numTags := idx.g.NumTags()
	idx.reachTags = make([]bitset, numClasses)
	idx.reachedTags = make([]bitset, numClasses)
	for c := 0; c < numClasses; c++ {
		idx.reachTags[c] = newBitset(numTags)
		idx.reachTags[c].set(int(idx.classTag[c]))
		idx.reachedTags[c] = newBitset(numTags)
		idx.reachedTags[c].set(int(idx.classTag[c]))
	}
	propagate(idx.reachTags, idx.classPred)
	propagate(idx.reachedTags, idx.classSucc)
}

// propagate unions each class's bits into its "upstream" neighbours until a
// fixpoint is reached, using a worklist.
func propagate(bits []bitset, upstream [][]int32) {
	work := make([]int32, 0, len(bits))
	inWork := make([]bool, len(bits))
	for c := range bits {
		work = append(work, int32(c))
		inWork[c] = true
	}
	for len(work) > 0 {
		c := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[c] = false
		for _, up := range upstream[c] {
			if bits[up].union(bits[c]) && !inWork[up] {
				work = append(work, up)
				inWork[up] = true
			}
		}
	}
}

// Name implements pathindex.Index.
func (idx *Index) Name() string { return "apex" }

// NumNodes implements pathindex.Index.
func (idx *Index) NumNodes() int { return idx.g.NumNodes() }

// Reachable implements pathindex.Index via summary-pruned BFS: a branch is
// abandoned as soon as its class can no longer reach y's tag; candidate hits
// are then confirmed by identity.
func (idx *Index) Reachable(x, y int32) bool {
	_, ok := idx.Distance(x, y)
	return ok
}

// Distance implements pathindex.Index.
func (idx *Index) Distance(x, y int32) (int32, bool) {
	if x == y {
		return 0, true
	}
	targetTag := idx.g.Tag(y)
	found := int32(-1)
	idx.prunedBFS(x, targetTag, func(n, d int32) bool {
		if n == y {
			found = d
			return false
		}
		return true
	})
	if found < 0 {
		return 0, false
	}
	return found, true
}

// prunedBFS runs a BFS over the data edges starting at x, visiting only
// nodes whose class can still reach wantTag in the summary, and reports
// every visited node carrying wantTag (excluding x itself).
func (idx *Index) prunedBFS(x int32, wantTag lgraph.Tag, fn pathindex.Visit) {
	g := idx.g
	if wantTag == lgraph.NoTag {
		return
	}
	dist := map[int32]int32{x: 0}
	queue := []int32{x}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		d := dist[u]
		for _, v := range g.Succs(u) {
			if _, seen := dist[v]; seen {
				continue
			}
			if !idx.reachTags[idx.class[v]].get(int(wantTag)) {
				continue // summary prunes this branch
			}
			dist[v] = d + 1
			if g.Tag(v) == wantTag {
				if !fn(v, d+1) {
					return
				}
			}
			queue = append(queue, v)
		}
	}
}

// EachReachable implements pathindex.Index with a plain BFS — the summary
// cannot prune a wildcard query.  BFS emits in ascending distance order with
// FIFO tie order; results within one level are re-sorted by node ID to meet
// the interface contract.
func (idx *Index) EachReachable(x int32, fn pathindex.Visit) {
	idx.levelBFS(x, false, lgraph.NoTag, true, fn)
}

// EachReachableByTag implements pathindex.Index.  Note that unlike
// EachReachable the summary pruning applies.
func (idx *Index) EachReachableByTag(x int32, tag lgraph.Tag, fn pathindex.Visit) {
	idx.levelBFS(x, false, tag, false, fn)
}

// EachReaching implements pathindex.Index.
func (idx *Index) EachReaching(x int32, fn pathindex.Visit) {
	idx.levelBFS(x, true, lgraph.NoTag, true, fn)
}

// EachReachingByTag implements pathindex.Index.
func (idx *Index) EachReachingByTag(x int32, tag lgraph.Tag, fn pathindex.Visit) {
	idx.levelBFS(x, true, tag, false, fn)
}

// levelBFS performs a level-synchronous BFS (forward or reverse), emitting
// nodes level by level sorted by ID.  With wildcard==false, only nodes of
// the given tag are emitted and the summary prunes dead branches.
func (idx *Index) levelBFS(x int32, reverse bool, tag lgraph.Tag, wildcard bool, fn pathindex.Visit) {
	if !wildcard && tag == lgraph.NoTag {
		return
	}
	g := idx.g
	reach := idx.reachTags
	if reverse {
		reach = idx.reachedTags
	}
	bs, _ := idx.bfs.Get().(*bfsScratch)
	if bs == nil {
		bs = &bfsScratch{seen: make([]int64, g.NumNodes())}
	}
	bs.tick++
	tick := bs.tick
	bs.seen[x] = tick
	level := append(bs.level[:0], x)
	next := bs.next[:0]
	d := int32(0)
	for len(level) > 0 {
		slices.Sort(level)
		for _, u := range level {
			if wildcard || g.Tag(u) == tag {
				if !fn(u, d) {
					bs.level, bs.next = level[:0], next[:0]
					idx.bfs.Put(bs)
					return
				}
			}
		}
		next = next[:0]
		for _, u := range level {
			adj := g.Succs(u)
			if reverse {
				adj = g.Preds(u)
			}
			for _, v := range adj {
				if bs.seen[v] == tick {
					continue
				}
				if !wildcard && !reach[idx.class[v]].get(int(tag)) {
					continue
				}
				bs.seen[v] = tick
				next = append(next, v)
			}
		}
		level, next = next, level
		d++
	}
	bs.level, bs.next = level[:0], next[:0]
	idx.bfs.Put(bs)
}

// PathExtent answers a pure label-path query //t1/t2/.../tk on the summary
// alone: it returns the data nodes reachable from any node tagged t1 through
// a child chain tagged t2...tk.  This is the query class APEX is built for;
// it never touches the data edges.
func (idx *Index) PathExtent(path []string) []int32 {
	if len(path) == 0 {
		return nil
	}
	t0 := idx.g.TagOf(path[0])
	if t0 == lgraph.NoTag {
		return nil
	}
	// current = summary classes matching the prefix so far.
	current := make(map[int32]struct{})
	for c := range idx.extents {
		if idx.classTag[c] == t0 {
			current[int32(c)] = struct{}{}
		}
	}
	for _, step := range path[1:] {
		t := idx.g.TagOf(step)
		if t == lgraph.NoTag {
			return nil
		}
		next := make(map[int32]struct{})
		for c := range current {
			for _, s := range idx.classSucc[c] {
				if idx.classTag[s] == t {
					next[s] = struct{}{}
				}
			}
		}
		current = next
		if len(current) == 0 {
			return nil
		}
	}
	var out []int32
	for c := range current {
		out = append(out, idx.extents[c]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WriteTo emits the canonical compact stream — class membership, extents
// (implicitly, via the class array), summary edges, and the data-graph
// adjacency the traversal needs at query time (APEX keeps the edge relation
// in the database; it is part of the index size).  It is Table 1's size
// measure and the byte-identity form the determinism tests compare; nothing
// reads it back.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	sw := storage.NewWriter(w)
	sw.Header("apex")
	sw.Uvarint(uint64(len(idx.class)))
	sw.Int32Slice(idx.class)
	sw.Uvarint(uint64(len(idx.extents)))
	for c := range idx.extents {
		sw.Int32(int32(idx.classTag[c]))
		sw.Int32Slice(idx.classSucc[c])
	}
	// Data adjacency.
	g := idx.g
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		sw.Int32Slice(g.Succs(u))
	}
	return sw.Flush()
}

// bitset is a fixed-size bit vector.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// union ORs o into b and reports whether b changed.
func (b bitset) union(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}
