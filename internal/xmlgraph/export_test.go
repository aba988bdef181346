package xmlgraph

import "slices"

// Reachable reports whether y is reachable from x in G_X (the
// descendants-or-self relation of the linked collection).
func (c *Collection) Reachable(x, y NodeID) bool {
	if x == y {
		return true
	}
	return c.BFSDistance(x, y) >= 0
}

// TreeDescendants returns the descendants of start following only tree
// (parent-child) edges, in depth-first order.
func (c *Collection) TreeDescendants(start NodeID) []NodeID {
	var out []NodeID
	var stack []NodeID
	c.EachChild(start, func(ch NodeID) { stack = append(stack, ch) })
	// Children were appended in order; pop from the end for DFS, so reverse
	// first to keep document order.
	slices.Reverse(stack)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, n)
		var kids []NodeID
		c.EachChild(n, func(ch NodeID) { kids = append(kids, ch) })
		slices.Reverse(kids)
		stack = append(stack, kids...)
	}
	return out
}

// Children appends the children of id to dst and returns it, in document
// order.
func (c *Collection) Children(id NodeID, dst []NodeID) []NodeID {
	for ch := c.firstChild(id); ch != InvalidNode; ch = c.nextSibling[ch] {
		dst = append(dst, ch)
	}
	return dst
}

// Path returns the tag path from the document root to id, e.g.
// ["dblp", "article", "author"].
func (c *Collection) Path(id NodeID) []string {
	var rev []string
	for n := id; n != InvalidNode; n = c.parent[n] {
		rev = append(rev, c.Tag(n))
	}
	slices.Reverse(rev)
	return rev
}

// Current returns the element currently open, or InvalidNode.
func (b *DocumentBuilder) Current() NodeID {
	if len(b.stack) == 0 {
		return InvalidNode
	}
	return b.stack[len(b.stack)-1].id
}

// DocID returns the ID of the document being built.
func (b *DocumentBuilder) DocID() DocID { return b.doc }
