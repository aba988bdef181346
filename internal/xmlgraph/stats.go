package xmlgraph

import (
	"fmt"
	"slices"
)

// Stats summarizes the structural properties of a collection.  The Indexing Strategy Selector (§4.1 of the paper)
// bases its decisions on these numbers: number of documents, size
// distribution, link structure, and link density.
type Stats struct {
	Docs     int // number of documents
	Nodes    int // number of elements
	Edges    int // tree + link edges
	Links    int // link edges only
	Intra    int // intra-document links
	Inter    int // inter-document links
	Tags     int // distinct element names
	MaxDepth int // maximum tree depth over all documents
	MaxDoc   int // elements of the largest document
	AvgDoc   float64
	// LinkDensity is links per node.
	LinkDensity float64
	// HasCycle reports whether the data graph G_X contains a directed
	// cycle (possible only through link edges).
	HasCycle bool
	// IsTree reports whether G_X as a whole forms a forest of trees even
	// with links included, i.e. every node has at most one incoming edge
	// and there is no cycle.  When true, PPO can index the whole graph
	// (the "Maximal PPO" observation in §4.3).
	IsTree bool
}

// ComputeStats analyses the whole collection.
func ComputeStats(c *Collection) Stats {
	st := Stats{Docs: c.NumDocs(), Links: c.NumLinks(), Tags: len(c.TagNames())}
	for d := range st.Docs {
		doc := c.Doc(DocID(d))
		sz := doc.Size()
		st.Nodes += sz
		if sz > st.MaxDoc {
			st.MaxDoc = sz
		}
		first, last := doc.Nodes()
		for n := first; n < last; n++ {
			if dep := c.Depth(n); dep > st.MaxDepth {
				st.MaxDepth = dep
			}
		}
	}
	for _, l := range c.Links() {
		if c.DocOf(l.From) == c.DocOf(l.To) {
			st.Intra++
		} else {
			st.Inter++
		}
	}
	st.Edges = st.Nodes - st.Docs + st.Links
	if st.Docs > 0 {
		st.AvgDoc = float64(st.Nodes) / float64(st.Docs)
	}
	if st.Nodes > 0 {
		st.LinkDensity = float64(st.Links) / float64(st.Nodes)
	}
	// One in-degree count over tree and link edges answers both shape
	// questions: a node entered twice rules out a forest, and Kahn's pass
	// removes every node unless a cycle holds some back.
	indeg := make([]int32, c.NumNodes())
	for n := range indeg {
		if c.Parent(NodeID(n)) != InvalidNode {
			indeg[n]++
		}
	}
	for _, l := range c.Links() {
		indeg[l.To]++
	}
	single := !slices.ContainsFunc(indeg, func(d int32) bool { return d > 1 })
	queue := make([]NodeID, 0, len(indeg))
	for n, d := range indeg {
		if d == 0 {
			queue = append(queue, NodeID(n))
		}
	}
	for i := 0; i < len(queue); i++ {
		c.EachSuccessor(queue[i], func(s NodeID) {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		})
	}
	st.HasCycle = len(queue) < len(indeg)
	st.IsTree = !st.HasCycle && single
	return st
}

// String renders the stats for logs and the flixquery CLI.
func (s Stats) String() string {
	return fmt.Sprintf(
		"docs=%d nodes=%d edges=%d links=%d (intra=%d inter=%d) tags=%d maxDepth=%d maxDoc=%d avgDoc=%.1f density=%.4f cycle=%t tree=%t",
		s.Docs, s.Nodes, s.Edges, s.Links, s.Intra, s.Inter, s.Tags,
		s.MaxDepth, s.MaxDoc, s.AvgDoc, s.LinkDensity, s.HasCycle, s.IsTree)
}
