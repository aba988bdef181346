package xmlgraph

// This file contains exact graph-search oracles over the full data graph
// G_X.  They are used as ground truth by the test suites of every index
// package and by the transitive-closure baseline; they are deliberately
// simple breadth-first searches.

import "sort"

// BFSDistances returns the shortest-path distance (number of edges, tree and
// link edges alike) from start to every node, or -1 where unreachable.
// start itself has distance 0.
func (c *Collection) BFSDistances(start NodeID) []int32 {
	dist := make([]int32, c.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	queue := []NodeID{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		d := dist[n]
		c.EachSuccessor(n, func(s NodeID) {
			if dist[s] < 0 {
				dist[s] = d + 1
				queue = append(queue, s)
			}
		})
	}
	return dist
}

// BFSDistance returns the shortest-path distance from x to y, or -1 if y is
// not reachable from x.
func (c *Collection) BFSDistance(x, y NodeID) int32 {
	if x == y {
		return 0
	}
	dist := make(map[NodeID]int32, 64)
	dist[x] = 0
	queue := []NodeID{x}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		d := dist[n]
		found := int32(-1)
		c.EachSuccessor(n, func(s NodeID) {
			if _, seen := dist[s]; !seen {
				dist[s] = d + 1
				if s == y {
					found = d + 1
				}
				queue = append(queue, s)
			}
		})
		if found >= 0 {
			return found
		}
	}
	return -1
}

// Descendants returns all nodes reachable from start (excluding start itself
// unless it lies on a cycle through start), in BFS order.
func (c *Collection) Descendants(start NodeID) []NodeID {
	var out []NodeID
	seen := map[NodeID]struct{}{start: {}}
	queue := []NodeID{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		c.EachSuccessor(n, func(s NodeID) {
			if _, ok := seen[s]; !ok {
				seen[s] = struct{}{}
				out = append(out, s)
				queue = append(queue, s)
			}
		})
	}
	return out
}

// DescendantsByTag returns the nodes reachable from start whose tag equals
// tag, paired with their exact shortest-path distances, sorted by ascending
// distance (ties by NodeID).  This is the ground truth for the PEE's
// a//b evaluation.
func (c *Collection) DescendantsByTag(start NodeID, tag string) []NodeDist {
	dist := c.BFSDistances(start)
	want := c.TagIDOf(tag)
	var out []NodeDist
	for n := range dist {
		if dist[n] > 0 && c.tagIDs[n] == want {
			out = append(out, NodeDist{Node: NodeID(n), Dist: dist[n]})
		}
	}
	SortNodeDists(out)
	return out
}

// NodeDist pairs a node with a distance.
type NodeDist struct {
	Node NodeID
	Dist int32
}

// SortNodeDists sorts s by ascending distance, ties by node ID.
func SortNodeDists(s []NodeDist) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Dist != s[j].Dist {
			return s[i].Dist < s[j].Dist
		}
		return s[i].Node < s[j].Node
	})
}

// Ancestors returns all nodes from which start is reachable, in reverse-BFS
// order.
func (c *Collection) Ancestors(start NodeID) []NodeID {
	var out []NodeID
	seen := map[NodeID]struct{}{start: {}}
	queue := []NodeID{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		c.EachPredecessor(n, func(p NodeID) {
			if _, ok := seen[p]; !ok {
				seen[p] = struct{}{}
				out = append(out, p)
				queue = append(queue, p)
			}
		})
	}
	return out
}
