package partition

// Frozen copies of the partitioners as they stood before the linear-time
// rewrite (commit 6c3dce6), kept as differential references: the v2 snapshot
// container persists no decomposition, so a partitioner that moves one
// document orphans every deployed snapshot.  Do not "fix" or speed up this
// file; TestPartitionersMatchReference compares the live code against it.

import (
	"sort"

	"repro/internal/xmlgraph"
)

// newResult allocates a Result for a collection.
func referenceNewResult(c *xmlgraph.Collection) *Result {
	return &Result{
		PartOf:        make([]int32, c.NumDocs()),
		IncludedLinks: make([]bool, c.NumLinks()),
	}
}

// finishIncluded marks every link whose endpoints share a part as included.
// Used by partitionings that keep all intra-part links.
func referenceFinishIncluded(r *Result, c *xmlgraph.Collection) {
	for i, l := range c.Links() {
		r.IncludedLinks[i] = r.PartOf[c.DocOf(l.From)] == r.PartOf[c.DocOf(l.To)]
	}
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
func referenceTreePartitions(c *xmlgraph.Collection) *Result {
	r := referenceNewResult(c)
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

	// Group documents: tree-capable ones by union-find root; the rest as
	// singletons.
	group := make(map[int32][]xmlgraph.DocID)
	var order []int32
	for d := 0; d < nDocs; d++ {
		var key int32
		if treeCapable[d] {
			key = find(int32(d))
		} else {
			key = int32(nDocs + d) // unique singleton key
		}
		if _, ok := group[key]; !ok {
			order = append(order, key)
		}
		group[key] = append(group[key], xmlgraph.DocID(d))
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for pi, key := range order {
		r.Parts = append(r.Parts, group[key])
		for _, d := range group[key] {
			r.PartOf[d] = int32(pi)
		}
	}
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
// Documents larger than maxNodes form their own part.
func referenceSizeBounded(c *xmlgraph.Collection, maxNodes int) *Result {
	if maxNodes <= 0 {
		maxNodes = 1 << 30
	}
	r := referenceNewResult(c)
	nDocs := c.NumDocs()

	// Document-level link multigraph (undirected affinity counts).
	aff := make([]map[xmlgraph.DocID]int, nDocs)
	addAff := func(a, b xmlgraph.DocID) {
		if aff[a] == nil {
			aff[a] = make(map[xmlgraph.DocID]int)
		}
		aff[a][b]++
	}
	for _, l := range c.Links() {
		fd, td := c.DocOf(l.From), c.DocOf(l.To)
		if fd == td {
			continue
		}
		addAff(fd, td)
		addAff(td, fd)
	}

	assigned := make([]bool, nDocs)
	var partIdx int32
	fill := 0 // monotone cursor over seed documents
	for fill < nDocs {
		if assigned[fill] {
			fill++
			continue
		}
		var part []xmlgraph.DocID
		size := 0
		take := func(d xmlgraph.DocID) {
			assigned[d] = true
			part = append(part, d)
			size += c.Doc(d).Size()
			r.PartOf[d] = partIdx
		}
		// Greedy growth: repeatedly add the unassigned neighbour with
		// the highest affinity to the current part that still fits;
		// when no linked neighbour is left, pack the partition with the
		// next unassigned documents (HOPI's partitioner fills partitions
		// to the size bound; isolated documents carry no links, so
		// packing them together costs nothing in cut size).
		cand := make(map[xmlgraph.DocID]int)
		mergeNeighbours := func(d xmlgraph.DocID) {
			for n, cnt := range aff[d] {
				if !assigned[n] {
					cand[n] += cnt
				}
			}
		}
		take(xmlgraph.DocID(fill))
		mergeNeighbours(xmlgraph.DocID(fill))
		for {
			best := xmlgraph.InvalidDoc
			bestCnt := 0
			for d, cnt := range cand {
				if assigned[d] || c.Doc(d).Size()+size > maxNodes {
					continue
				}
				if cnt > bestCnt || (cnt == bestCnt && (best == xmlgraph.InvalidDoc || d < best)) {
					best, bestCnt = d, cnt
				}
			}
			if best == xmlgraph.InvalidDoc {
				// No linked candidate fits: pack with the next
				// unassigned document that does.
				for d := fill; d < nDocs; d++ {
					if !assigned[d] && c.Doc(xmlgraph.DocID(d)).Size()+size <= maxNodes {
						best = xmlgraph.DocID(d)
						break
					}
				}
				if best == xmlgraph.InvalidDoc {
					break // partition is full
				}
			}
			delete(cand, best)
			take(best)
			mergeNeighbours(best)
		}
		sort.Slice(part, func(i, j int) bool { return part[i] < part[j] })
		r.Parts = append(r.Parts, part)
		partIdx++
	}
	referenceFinishIncluded(r, c)
	return r
}

// Hybrid combines Maximal PPO with Unconnected HOPI (§4.3): tree-capable
// regions become PPO-ready tree partitions; everything else is partitioned
// size-bounded for HOPI.  A tree partition is kept only when it has at least
// minTreeDocs documents or is a genuinely isolated tree — tiny fragments of
// linked regions are better served by HOPI.  The returned Result contains
// the tree parts first, then the size-bounded parts.
func referenceHybrid(c *xmlgraph.Collection, maxNodes, minTreeDocs int) *Result {
	trees, rest := referenceHybridSplit(c, maxNodes, minTreeDocs)
	return referenceMerge(c, trees, rest)
}

func referenceHybridSplit(c *xmlgraph.Collection, maxNodes, minTreeDocs int) (trees, rest *Result) {
	full := referenceTreePartitions(c)
	// Split documents: those in multi-document tree parts (or isolated
	// tree-capable singletons) stay PPO; the rest go to the HOPI side.
	isTreeDoc := make([]bool, c.NumDocs())
	for _, part := range full.Parts {
		if len(part) >= minTreeDocs {
			for _, d := range part {
				isTreeDoc[d] = true
			}
			continue
		}
		// Singleton: keep with PPO when it has no links at all.
		if len(part) == 1 && referenceDocIsolated(c, part[0]) {
			isTreeDoc[part[0]] = true
		}
	}
	treeColl := make([]xmlgraph.DocID, 0)
	restColl := make([]xmlgraph.DocID, 0)
	for d := 0; d < c.NumDocs(); d++ {
		if isTreeDoc[d] {
			treeColl = append(treeColl, xmlgraph.DocID(d))
		} else {
			restColl = append(restColl, xmlgraph.DocID(d))
		}
	}
	return referenceRestrict(c, full, treeColl), referenceRestrict(c, referenceSizeBounded(c, maxNodes), restColl)
}

// docIsolated reports whether no link touches the document.
func referenceDocIsolated(c *xmlgraph.Collection, d xmlgraph.DocID) bool {
	for _, l := range c.Links() {
		if c.DocOf(l.From) == d || c.DocOf(l.To) == d {
			return false
		}
	}
	return true
}

// restrict filters a partitioning down to a subset of documents, dropping
// empty parts and renumbering.  Links with an endpoint outside the subset
// become excluded.
func referenceRestrict(c *xmlgraph.Collection, r *Result, docs []xmlgraph.DocID) *Result {
	inSet := make([]bool, c.NumDocs())
	for _, d := range docs {
		inSet[d] = true
	}
	out := referenceNewResult(c)
	for i := range out.PartOf {
		out.PartOf[i] = -1
	}
	remap := make(map[int32]int32)
	for _, d := range docs {
		old := r.PartOf[d]
		ni, ok := remap[old]
		if !ok {
			ni = int32(len(out.Parts))
			remap[old] = ni
			out.Parts = append(out.Parts, nil)
		}
		out.Parts[ni] = append(out.Parts[ni], d)
		out.PartOf[d] = ni
	}
	for i, l := range c.Links() {
		out.IncludedLinks[i] = r.IncludedLinks[i] &&
			inSet[c.DocOf(l.From)] && inSet[c.DocOf(l.To)]
	}
	return out
}

// merge concatenates two disjoint restricted partitionings into one Result.
// Every document must belong to exactly one of the two.
func referenceMerge(c *xmlgraph.Collection, a, b *Result) *Result {
	out := referenceNewResult(c)
	out.Parts = append(out.Parts, a.Parts...)
	out.Parts = append(out.Parts, b.Parts...)
	off := int32(len(a.Parts))
	for d := 0; d < c.NumDocs(); d++ {
		switch {
		case a.PartOf[d] >= 0:
			out.PartOf[d] = a.PartOf[d]
		case b.PartOf[d] >= 0:
			out.PartOf[d] = b.PartOf[d] + off
		default:
			panic("partition: document in neither side of a merge")
		}
	}
	for i := range out.IncludedLinks {
		out.IncludedLinks[i] = a.IncludedLinks[i] || b.IncludedLinks[i]
	}
	return out
}
