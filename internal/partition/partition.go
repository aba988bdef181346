// Package partition implements the document-level partitioning algorithms
// behind FliX's meta-document configurations (§4.3).
//
// Finding optimal meta documents is NP-hard (the paper reduces it to set
// cover), so each configuration ships a deterministic greedy approximation:
//
//   - TreePartitions computes the "Maximal PPO" partitioning: maximal groups
//     of documents whose combined data graph stays a forest, by accepting
//     root-links into a spanning forest of the document graph.
//   - SizeBounded computes the "Unconnected HOPI" partitioning: document
//     groups of bounded element count with few partition-crossing links,
//     grown greedily by link affinity.
package partition

import "repro/internal/xmlgraph"

// Result is a partitioning of a collection's documents.  Every document is
// in exactly one part.
type Result struct {
	// Parts lists the documents of each part, ascending within a part.
	Parts [][]xmlgraph.DocID
	// PartOf maps every document to its part index.
	PartOf []int32
	// IncludedLinks marks, per link index of the collection, whether the
	// link is represented inside a part's meta document (true) or must be
	// followed at query run time (false).  Links between parts are always
	// excluded; TreePartitions additionally excludes intra-part links
	// that would break the forest property.
	IncludedLinks []bool
}

// newResult allocates a Result for a collection.
func newResult(c *xmlgraph.Collection) *Result {
	return &Result{
		PartOf:        make([]int32, c.NumDocs()),
		IncludedLinks: make([]bool, c.NumLinks()),
	}
}

// group fills Parts from PartOf (part indexes 0..nParts-1; negative entries
// are skipped).  Documents are visited in ascending order, so every part
// comes out ascending, and all parts share one backing array.
func (r *Result) group(nParts int) {
	start := make([]int32, nParts+1)
	n := 0
	for _, p := range r.PartOf {
		if p >= 0 {
			start[p+1]++
			n++
		}
	}
	for p := 0; p < nParts; p++ {
		start[p+1] += start[p]
	}
	docs := make([]xmlgraph.DocID, n)
	r.Parts = make([][]xmlgraph.DocID, nParts)
	for p := range r.Parts {
		r.Parts[p] = docs[start[p]:start[p]:start[p+1]]
	}
	for d, p := range r.PartOf {
		if p >= 0 {
			r.Parts[p] = append(r.Parts[p], xmlgraph.DocID(d))
		}
	}
}

// finishIncluded marks every link whose endpoints share a part as included.
// Used by partitionings that keep all intra-part links.
func (r *Result) finishIncluded(c *xmlgraph.Collection) {
	for i, l := range c.Links() {
		r.IncludedLinks[i] = r.PartOf[c.DocOf(l.From)] == r.PartOf[c.DocOf(l.To)]
	}
}

// Singleton puts every document into its own part, keeping intra-document
// links — the "Naive" configuration.
func Singleton(c *xmlgraph.Collection) *Result {
	r := newResult(c)
	for d := range r.PartOf {
		r.PartOf[d] = int32(d)
	}
	r.group(c.NumDocs())
	r.finishIncluded(c)
	return r
}

// Whole puts the entire collection into a single part with all links
// included — used to run a monolithic index (full HOPI, full APEX) through
// the same machinery as the FliX configurations.
func Whole(c *xmlgraph.Collection) *Result {
	r := newResult(c)
	docs := make([]xmlgraph.DocID, c.NumDocs())
	for d := range docs {
		docs[d] = xmlgraph.DocID(d)
	}
	r.Parts = [][]xmlgraph.DocID{docs}
	for i := range r.IncludedLinks {
		r.IncludedLinks[i] = true
	}
	return r
}

// TreePartitions computes the Maximal PPO partitioning (§4.3, option 2):
// partitions of the document graph such that each partition's data graph
// forms a forest indexable by PPO.
//
// A document is tree-capable when it has no intra-document links (any
// intra-document link gives some element a second incoming edge).  An
// inter-document link can be represented inside a partition only when it
// points to the target document's root; accepting it must neither give that
// root a second incoming link nor close a cycle among the partition's
// documents.  Links are considered in collection order, which makes the
// greedy spanning forest deterministic.  Documents that are not tree-capable
// form singleton parts whose intra-document links stay included only if the
// caller indexes them with a graph-capable strategy.
func TreePartitions(c *xmlgraph.Collection) *Result {
	r := newResult(c)
	nDocs := c.NumDocs()
	treeCapable := make([]bool, nDocs)
	for d := range treeCapable {
		treeCapable[d] = true
	}
	for _, l := range c.Links() {
		if c.DocOf(l.From) == c.DocOf(l.To) {
			treeCapable[c.DocOf(l.From)] = false
		}
	}

	// Union-find over documents.
	parent := make([]int32, nDocs)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	hasIncomingAccepted := make([]bool, nDocs)
	for i, l := range c.Links() {
		fromDoc, toDoc := c.DocOf(l.From), c.DocOf(l.To)
		if fromDoc == toDoc {
			continue // intra-document: never accepted
		}
		if !treeCapable[fromDoc] || !treeCapable[toDoc] {
			continue
		}
		if l.To != c.Doc(toDoc).Root {
			continue // link into the middle of a document: second parent
		}
		if hasIncomingAccepted[toDoc] {
			continue // root would get a second incoming link
		}
		if find(int32(fromDoc)) == find(int32(toDoc)) {
			continue // would close a cycle
		}
		parent[find(int32(fromDoc))] = find(int32(toDoc))
		hasIncomingAccepted[toDoc] = true
		r.IncludedLinks[i] = true
	}

	// Number the parts: the union-find groups in ascending order of their
	// representative, then the documents that are not tree-capable as
	// singletons.
	nParts := int32(0)
	for d := 0; d < nDocs; d++ {
		if treeCapable[d] && find(int32(d)) == int32(d) {
			r.PartOf[d] = nParts
			nParts++
		}
	}
	for d := 0; d < nDocs; d++ {
		if treeCapable[d] {
			r.PartOf[d] = r.PartOf[find(int32(d))]
		} else {
			r.PartOf[d] = nParts
			nParts++
		}
	}
	r.group(int(nParts))
	// Intra-document links of non-tree-capable singleton parts stay
	// included (their part is indexed with a graph strategy).
	for i, l := range c.Links() {
		if c.DocOf(l.From) == c.DocOf(l.To) {
			r.IncludedLinks[i] = true
		}
	}
	return r
}

// SizeBounded computes the Unconnected HOPI partitioning (§4.3): document
// groups whose element counts stay below maxNodes, grown greedily by link
// affinity so that partition-crossing links stay few.  This mirrors the
// first step of HOPI's divide-and-conquer build, stopped before the
// sub-index join.
//
// A part is seeded with the lowest unassigned document and then repeatedly
// takes the unassigned document with the most links into the part that still
// fits (ties to the lower document); when no linked document fits, it is
// packed with the next unassigned document that does (HOPI's partitioner
// fills partitions to the size bound; isolated documents carry no links, so
// packing them together costs nothing in cut size).  Documents larger than
// maxNodes form their own part.
//
// The run time is O(documents + links·log links).  Both searches rely on a
// part only ever growing: a candidate that does not fit now cannot fit the
// same part later, so the heap drops it for good and the packing cursor
// never looks back.
func SizeBounded(c *xmlgraph.Collection, maxNodes int) *Result {
	if maxNodes <= 0 {
		maxNodes = 1 << 30
	}
	r := newResult(c)
	nDocs := c.NumDocs()
	links := c.Links()

	// Document-level link multigraph in CSR form: adj[off[d]:off[d+1]] names
	// the other document of every inter-document link touching d, once per
	// link, so a document's affinity to a part is the number of its entries
	// inside the part.
	off := make([]int32, nDocs+1)
	for _, l := range links {
		if fd, td := c.DocOf(l.From), c.DocOf(l.To); fd != td {
			off[fd+1]++
			off[td+1]++
		}
	}
	for d := 0; d < nDocs; d++ {
		off[d+1] += off[d]
	}
	adj := make([]xmlgraph.DocID, off[nDocs])
	cursor := make([]int32, nDocs)
	copy(cursor, off)
	for _, l := range links {
		if fd, td := c.DocOf(l.From), c.DocOf(l.To); fd != td {
			adj[cursor[fd]] = td
			cursor[fd]++
			adj[cursor[td]] = fd
			cursor[td]++
		}
	}

	minSize := maxNodes
	for d := range r.PartOf {
		r.PartOf[d] = -1 // unassigned
		minSize = min(minSize, c.Doc(xmlgraph.DocID(d)).Size())
	}
	// aff[d] is d's affinity to the part under construction, valid while
	// affPart[d] names that part (which saves clearing aff per part).
	aff, affPart := make([]int32, nDocs), make([]int32, nDocs)
	var cands candHeap
	nParts := int32(0)
	for seed := 0; seed < nDocs; seed++ {
		if r.PartOf[seed] >= 0 {
			continue
		}
		nParts++
		cands = cands[:0]
		room := maxNodes
		pack := seed + 1
		for next := xmlgraph.DocID(seed); next != xmlgraph.InvalidDoc; {
			r.PartOf[next] = nParts - 1
			room -= c.Doc(next).Size()
			for _, n := range adj[off[next]:off[next+1]] {
				if r.PartOf[n] >= 0 {
					continue
				}
				if affPart[n] != nParts {
					affPart[n], aff[n] = nParts, 0
				}
				aff[n]++
				cands.push(aff[n], n)
			}
			next = xmlgraph.InvalidDoc
			for len(cands) > 0 && next == xmlgraph.InvalidDoc {
				// An entry is stale once its document was taken or pushed
				// again with a higher count.
				cnt, d := cands.pop()
				if r.PartOf[d] < 0 && aff[d] == cnt && c.Doc(d).Size() <= room {
					next = d
				}
			}
			if next == xmlgraph.InvalidDoc && room >= minSize {
				for ; pack < nDocs; pack++ {
					if r.PartOf[pack] < 0 && c.Doc(xmlgraph.DocID(pack)).Size() <= room {
						next = xmlgraph.DocID(pack)
						break
					}
				}
			}
		}
	}
	r.group(int(nParts))
	r.finishIncluded(c)
	return r
}

// candHeap is a binary max-heap of (affinity, document) candidates ordered by
// affinity descending, then document ascending.  Entries are never updated in
// place: a document whose affinity rises is pushed again and the consumer
// skips the superseded entries (lazy deletion).
type candHeap []uint64

// Both halves are non-negative int32s, so plain integer order on the packed
// key is (affinity desc, document asc) order.
func (h *candHeap) push(aff int32, d xmlgraph.DocID) {
	*h = append(*h, uint64(aff)<<32|uint64(^uint32(d)))
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] >= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *candHeap) pop() (aff int32, d xmlgraph.DocID) {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
		big := i
		if l := 2*i + 1; l < last && s[l] > s[big] {
			big = l
		}
		if r := 2*i + 2; r < last && s[r] > s[big] {
			big = r
		}
		if big == i {
			break
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
	return int32(top >> 32), xmlgraph.DocID(^uint32(top))
}

// Hybrid combines Maximal PPO with Unconnected HOPI (§4.3): tree-capable
// regions become PPO-ready tree partitions; everything else is partitioned
// size-bounded for HOPI.  A tree partition is kept only when it has at least
// minTreeDocs documents or is a genuinely isolated tree — tiny fragments of
// linked regions are better served by HOPI.  The returned Result contains
// the tree parts first, then the size-bounded parts, each side in ascending
// order of its parts' lowest documents.
func Hybrid(c *xmlgraph.Collection, maxNodes, minTreeDocs int) *Result {
	nDocs := c.NumDocs()
	links := c.Links()
	trees := TreePartitions(c)
	// Documents in multi-document tree parts, and tree-capable singletons
	// that no link touches, stay on the PPO side; the rest go to HOPI.
	linked := make([]bool, nDocs)
	for _, l := range links {
		linked[c.DocOf(l.From)] = true
		linked[c.DocOf(l.To)] = true
	}
	isTree := make([]bool, nDocs)
	for _, part := range trees.Parts {
		if len(part) >= minTreeDocs || (len(part) == 1 && !linked[part[0]]) {
			for _, d := range part {
				isTree[d] = true
			}
		}
	}
	// The HOPI side is the size-bounded partitioning of the whole
	// collection with the tree documents taken out of its parts.
	bounded := SizeBounded(c, maxNodes)

	r := newResult(c)
	nParts := int32(0)
	for _, side := range []struct {
		from *Result
		tree bool
	}{{trees, true}, {bounded, false}} {
		renumber := make([]int32, len(side.from.Parts))
		for d := 0; d < nDocs; d++ {
			if isTree[d] != side.tree {
				continue
			}
			old := side.from.PartOf[d]
			if renumber[old] == 0 {
				nParts++
				renumber[old] = nParts
			}
			r.PartOf[d] = renumber[old] - 1
		}
	}
	r.group(int(nParts))
	for i, l := range links {
		switch fd, td := isTree[c.DocOf(l.From)], isTree[c.DocOf(l.To)]; {
		case fd && td:
			r.IncludedLinks[i] = trees.IncludedLinks[i]
		case !fd && !td:
			r.IncludedLinks[i] = bounded.IncludedLinks[i]
		}
	}
	return r
}

// ElementLevel assigns every element of the collection to a partition of at
// most maxNodes elements, ignoring document boundaries — the element-level
// meta documents of the paper's future work (§7): connected elements are
// grouped regardless of which document they live in.  Regions grow by
// breadth-first search over the undirected data graph (children, parents
// and links in both directions), so tightly linked elements of different
// documents land in one partition while an oversized document is split into
// several.  The returned assignment is deterministic.
func ElementLevel(c *xmlgraph.Collection, maxNodes int) (assign []int32, parts int) {
	if maxNodes <= 0 {
		maxNodes = 1 << 30
	}
	n := c.NumNodes()
	assign = make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	var queue []xmlgraph.NodeID
	cur := int32(0)
	size := 0
	take := func(v xmlgraph.NodeID) {
		assign[v] = cur
		size++
		queue = append(queue, v)
	}
	visit := func(w xmlgraph.NodeID) {
		if assign[w] == -1 && size < maxNodes {
			take(w)
		}
	}
	for seed := xmlgraph.NodeID(0); int(seed) < n; seed++ {
		if assign[seed] != -1 {
			continue
		}
		if size >= maxNodes {
			cur++
			size = 0
			queue = queue[:0]
		}
		take(seed)
		for len(queue) > 0 && size < maxNodes {
			v := queue[0]
			queue = queue[1:]
			c.EachSuccessor(v, visit)
			c.EachPredecessor(v, visit)
		}
	}
	return assign, int(cur) + 1
}
