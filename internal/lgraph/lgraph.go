// Package lgraph provides the local labeled-graph view that the path index
// structures (PPO, HOPI, APEX, ...) are built on.
//
// A meta document (FliX §4.1) is a subset of a collection's documents plus a
// subset of its link edges.  Before an index is built, the meta document is
// flattened into an LGraph: nodes are renumbered densely 0..N-1, element
// names are dictionary-compressed into tag IDs, and the edges are stored in
// compressed sparse row (CSR) form.  Keeping the index packages on this
// minimal representation decouples them from the XML data model and makes
// them reusable for any directed labeled graph.
package lgraph

import "fmt"

// Tag is a dictionary-compressed element name.  It is an alias (not a
// defined type) so the index packages' probe methods, which take tags,
// satisfy the storage-agnostic probe interface (storage.Probe) that is
// expressed in plain int32 — internal/storage sits below this package and
// cannot import it.
type Tag = int32

// NoTag is returned for unknown element names.
const NoTag Tag = -1

// LGraph is an immutable directed graph with dense node IDs 0..N-1 and a tag
// per node.  Construct with NewBuilder; zero value is an empty graph.
type LGraph struct {
	n int

	// CSR adjacency: successors of u are adjTargets[adjOff[u]:adjOff[u+1]].
	// adjTargets may be shared with other graphs (FromAdjacency), so
	// adjOff[0] is not necessarily 0.
	adjOff     []int32
	adjTargets []int32

	// Reverse CSR adjacency (predecessors), built eagerly by Finish.
	radjOff     []int32
	radjTargets []int32

	tags     []Tag
	tagNames []string
	tagIDs   map[string]Tag
}

// Builder accumulates nodes and edges for an LGraph.
type Builder struct {
	tags     []Tag
	tagNames []string
	tagIDs   map[string]Tag
	from, to []int32
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{tagIDs: make(map[string]Tag)}
}

// AddNode appends a node with the given element name and returns its dense
// ID.
func (b *Builder) AddNode(tag string) int32 {
	id, ok := b.tagIDs[tag]
	if !ok {
		id = Tag(len(b.tagNames))
		b.tagNames = append(b.tagNames, tag)
		b.tagIDs[tag] = id
	}
	b.tags = append(b.tags, id)
	return int32(len(b.tags) - 1)
}

// AddEdge appends a directed edge u -> v.  Both endpoints must already have
// been added.
func (b *Builder) AddEdge(u, v int32) {
	if u < 0 || int(u) >= len(b.tags) || v < 0 || int(v) >= len(b.tags) {
		panic(fmt.Sprintf("lgraph: AddEdge(%d, %d) out of range (%d nodes)", u, v, len(b.tags)))
	}
	b.from = append(b.from, u)
	b.to = append(b.to, v)
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.tags) }

// Finish builds the immutable graph.  Parallel edges are kept (they are
// harmless for reachability and distance).
func (b *Builder) Finish() *LGraph {
	n := len(b.tags)
	succOff := make([]int32, n+1)
	for _, u := range b.from {
		succOff[u+1]++
	}
	for i := 0; i < n; i++ {
		succOff[i+1] += succOff[i]
	}
	succ := make([]int32, len(b.from))
	cursor := make([]int32, n)
	copy(cursor, succOff)
	for i, u := range b.from {
		succ[cursor[u]] = b.to[i]
		cursor[u]++
	}
	return FromAdjacency(b.tags, b.tagNames, b.tagIDs,
		succOff, succ, make([]int32, n+1), make([]int32, len(succ)), cursor)
}

// FromAdjacency assembles a graph over storage the caller provides, so that
// a bulk producer (meta.Build) can carve many graphs out of a few exact-size
// arrays.  tags holds one tag per node and tagNames/tagIDs the dictionary
// behind them.  succOff/succ is the forward adjacency in CSR form with runs
// in any order; the offsets are positions in succ and need not start at 0, so
// consecutive graphs can share one offsets array and one succ.  predOff
// (len(succOff)) and pred (len(succ)) receive the reverse adjacency over the
// same range of positions, and scratch needs one element per node.  The graph
// keeps every argument but scratch, and both adjacencies come out with
// ascending runs.
func FromAdjacency(tags []Tag, tagNames []string, tagIDs map[string]Tag,
	succOff, succ, predOff, pred, scratch []int32) *LGraph {
	n := len(tags)
	clear(predOff)
	for _, v := range succ[succOff[0]:succOff[n]] {
		predOff[v+1]++
	}
	predOff[0] = succOff[0]
	for i := 0; i < n; i++ {
		predOff[i+1] += predOff[i]
	}
	// Transposing visits sources in ascending order, so it emits ascending
	// runs whatever order its input runs have: there and back sorts both
	// directions in linear time without a comparison.
	transpose(succOff, succ, predOff, pred, scratch[:n])
	transpose(predOff, pred, succOff, succ, scratch[:n])
	return &LGraph{
		n:      n,
		adjOff: succOff, adjTargets: succ,
		radjOff: predOff, radjTargets: pred,
		tags: tags, tagNames: tagNames, tagIDs: tagIDs,
	}
}

// transpose writes the transpose of the CSR adjacency (off, adj) into tadj,
// whose run boundaries toff already holds.
func transpose(off, adj, toff, tadj, cursor []int32) {
	copy(cursor, toff)
	for u := range cursor {
		for _, v := range adj[off[u]:off[u+1]] {
			tadj[cursor[v]] = int32(u)
			cursor[v]++
		}
	}
}

// NumNodes returns the number of nodes.
func (g *LGraph) NumNodes() int { return g.n }

// NumEdges returns the number of edges.
func (g *LGraph) NumEdges() int {
	if g.n == 0 {
		return 0
	}
	return int(g.adjOff[g.n] - g.adjOff[0])
}

// Tag returns the tag of node u.
func (g *LGraph) Tag(u int32) Tag { return g.tags[u] }

// TagName returns the element name of tag t.
func (g *LGraph) TagName(t Tag) string { return g.tagNames[t] }

// TagOf returns the tag ID for an element name, or NoTag.
func (g *LGraph) TagOf(name string) Tag {
	if id, ok := g.tagIDs[name]; ok {
		return id
	}
	return NoTag
}

// NumTags returns the number of distinct element names.
func (g *LGraph) NumTags() int { return len(g.tagNames) }

// Succs returns the successors of u.  Callers must not mutate the slice.
func (g *LGraph) Succs(u int32) []int32 {
	return g.adjTargets[g.adjOff[u]:g.adjOff[u+1]]
}

// Preds returns the predecessors of u.  Callers must not mutate the slice.
func (g *LGraph) Preds(u int32) []int32 {
	return g.radjTargets[g.radjOff[u]:g.radjOff[u+1]]
}

// OutDegree returns the number of edges leaving u.
func (g *LGraph) OutDegree(u int32) int { return int(g.adjOff[u+1] - g.adjOff[u]) }

// InDegree returns the number of edges entering u.
func (g *LGraph) InDegree(u int32) int { return int(g.radjOff[u+1] - g.radjOff[u]) }

// Roots returns the nodes without predecessors, ascending.
func (g *LGraph) Roots() []int32 {
	var out []int32
	for u := int32(0); u < int32(g.n); u++ {
		if g.InDegree(u) == 0 {
			out = append(out, u)
		}
	}
	return out
}

// IsForest reports whether the graph is a forest: every node has at most one
// predecessor and there are no cycles.  PPO requires this.
func (g *LGraph) IsForest() bool {
	for u := int32(0); u < int32(g.n); u++ {
		if g.InDegree(u) > 1 {
			return false
		}
	}
	// In-degree <= 1 everywhere means any cycle would be a simple rho-free
	// cycle with no entry point, i.e. a set of nodes all with in-degree 1
	// unreachable from a root.  Count nodes reachable from roots; if all
	// nodes are covered, there is no cycle.
	seen := make([]bool, g.n)
	var stack []int32
	for _, r := range g.Roots() {
		stack = append(stack, r)
		seen[r] = true
	}
	covered := len(stack)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Succs(u) {
			if !seen[v] {
				seen[v] = true
				covered++
				stack = append(stack, v)
			}
		}
	}
	return covered == g.n
}

// HasCycle reports whether the graph contains a directed cycle, via Kahn's
// algorithm.
func (g *LGraph) HasCycle() bool {
	indeg := make([]int32, g.n)
	for u := int32(0); u < int32(g.n); u++ {
		for _, v := range g.Succs(u) {
			indeg[v]++
		}
	}
	var queue []int32
	for u := int32(0); u < int32(g.n); u++ {
		if indeg[u] == 0 {
			queue = append(queue, u)
		}
	}
	removed := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		for _, v := range g.Succs(u) {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return removed != g.n
}

// BFSDistances returns the shortest-path distance from start to every node
// (-1 where unreachable).  Forward edges when !reverse, predecessor edges
// otherwise.  This is the exact oracle used in tests and by the transitive
// closure.
func (g *LGraph) BFSDistances(start int32, reverse bool) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	queue := make([]int32, 0, 16)
	queue = append(queue, start)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		next := g.Succs(u)
		if reverse {
			next = g.Preds(u)
		}
		for _, v := range next {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
