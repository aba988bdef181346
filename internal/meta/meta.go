// Package meta implements FliX's Meta Document Builder and Indexing
// Strategy Selector (§3.2, §4.1).
//
// A meta document is a subset of the collection's documents together with
// the link edges represented inside it.  The builder flattens each part of
// a document partitioning into a local labeled graph (lgraph.LGraph) with a
// dense node numbering, and records the remaining links — the ones the Path
// Expression Evaluator follows at query run time — as cross links attached
// to their source meta documents.
package meta

import (
	"fmt"

	"repro/internal/lgraph"
	"repro/internal/partition"
	"repro/internal/xmlgraph"
)

// CrossLink is a link edge not represented in any meta document index.  The
// source is local to the owning meta document; the target is global because
// it usually lies in another meta document.
type CrossLink struct {
	FromLocal int32
	To        xmlgraph.NodeID
}

// InLink is the mirror image for the ancestors direction.
type InLink struct {
	From    xmlgraph.NodeID
	ToLocal int32
}

// MetaDocument is one unit of indexing.
type MetaDocument struct {
	// ID is the meta document's index in its Set.
	ID int
	// Docs lists the member documents, ascending.  Element-level meta
	// documents (BuildElements) cut across documents and leave Docs nil.
	Docs []xmlgraph.DocID
	// Graph is the local data graph: tree edges plus included links.
	Graph *lgraph.LGraph
	// OutLinks lists the runtime links leaving elements of this meta
	// document, sorted by FromLocal.
	OutLinks []CrossLink
	// InLinks lists the runtime links entering this meta document,
	// sorted by ToLocal.
	InLinks []InLink
	// LinkSources lists the distinct local nodes with at least one
	// outgoing runtime link, ascending — the set L_i of §4.2.
	LinkSources []int32
	// linkStart[i] is where the links of LinkSources[i] begin in OutLinks;
	// one more entry than LinkSources closes the last run.
	linkStart []int32

	// toGlobal maps local node IDs to collection node IDs.
	toGlobal []xmlgraph.NodeID
	// localTag maps collection tag IDs (Collection.TagID) to Graph's tags,
	// lgraph.NoTag for names no member element carries.
	localTag []lgraph.Tag
}

// ToGlobal converts a local node ID to the collection node ID.
func (m *MetaDocument) ToGlobal(local int32) xmlgraph.NodeID {
	return m.toGlobal[local]
}

// LocalTag translates a collection tag ID (Collection.TagIDOf) into Graph's
// tag for the same element name: what Graph.TagOf answers from the name, as
// an array load.  It returns lgraph.NoTag for a negative ID and for a name no
// element of the meta document carries.
func (m *MetaDocument) LocalTag(id int32) lgraph.Tag {
	if id < 0 {
		return lgraph.NoTag
	}
	return m.localTag[id]
}

// LinksFrom returns the runtime links leaving the local node LinkSources[i].
func (m *MetaDocument) LinksFrom(i int) []CrossLink {
	return m.OutLinks[m.linkStart[i]:m.linkStart[i+1]]
}

// Set is a complete meta-document decomposition of a collection.
//
// A Set is immutable once Build or BuildElements has returned it: nothing in
// this package writes to it, its meta documents, their graphs or their link
// tables afterwards, and nothing outside may.  flix.Decompose relies on
// that — it hands one Set to every index generation built or opened over the
// collection, and they read it concurrently without a lock.
type Set struct {
	Coll  *xmlgraph.Collection
	Metas []*MetaDocument
	// MetaOf and LocalOf map a collection node to its meta document and
	// local node ID.
	MetaOf  []int32
	LocalOf []int32
}

// Build flattens a document-level partitioning of a frozen collection into
// meta documents.
func Build(c *xmlgraph.Collection, r *partition.Result) *Set {
	sizes := make([]int32, len(r.Parts))
	for pi, docs := range r.Parts {
		for _, d := range docs {
			sizes[pi] += int32(c.Doc(d).Size())
		}
	}
	s := newSet(c, sizes)
	for pi, docs := range r.Parts {
		md := s.Metas[pi]
		md.Docs = docs
		local := int32(0)
		for _, d := range docs {
			first, last := c.Doc(d).Nodes()
			for n := first; n < last; n++ {
				s.MetaOf[n] = int32(pi)
				s.LocalOf[n] = local
				md.toGlobal[local] = n
				local++
			}
		}
	}
	// Tree edges always stay inside one meta document (documents are
	// atomic at this level); links follow IncludedLinks.
	s.wire(r.IncludedLinks)
	return s
}

// BuildElements flattens a node-level assignment into meta documents — the
// element-level meta documents sketched in §7 ("ignore the artificial
// boundary of documents and combine semantically related, connected
// elements into a single meta document").  assign[n] gives the partition of
// node n (0 <= assign[n] < parts).  Any edge crossing the assignment —
// including a parent-child tree edge — becomes a runtime link; the Path
// Expression Evaluator handles those uniformly.  The collection must be
// frozen.
func BuildElements(c *xmlgraph.Collection, assign []int32, parts int) *Set {
	sizes := make([]int32, parts)
	for _, pi := range assign {
		sizes[pi]++
	}
	s := newSet(c, sizes)
	copy(s.MetaOf, assign)
	clear(sizes)
	for n, pi := range assign {
		s.LocalOf[n] = sizes[pi]
		s.Metas[pi].toGlobal[sizes[pi]] = xmlgraph.NodeID(n)
		sizes[pi]++
	}
	included := make([]bool, c.NumLinks())
	for i, l := range c.Links() {
		included[i] = assign[l.From] == assign[l.To]
	}
	s.wire(included)
	return s
}

// newSet allocates a Set whose meta document pi has sizes[pi] nodes.  The
// meta documents and their local-to-global tables are carved out of one array
// each, so the allocation count follows the number of meta documents, not
// the number of elements.
func newSet(c *xmlgraph.Collection, sizes []int32) *Set {
	s := &Set{
		Coll:    c,
		Metas:   make([]*MetaDocument, len(sizes)),
		MetaOf:  make([]int32, c.NumNodes()),
		LocalOf: make([]int32, c.NumNodes()),
	}
	metas := make([]MetaDocument, len(sizes))
	toGlobal := make([]xmlgraph.NodeID, c.NumNodes())
	for pi, n := range sizes {
		metas[pi] = MetaDocument{ID: pi, toGlobal: toGlobal[:n:n]}
		toGlobal = toGlobal[n:]
		s.Metas[pi] = &metas[pi]
	}
	return s
}

// edges calls fn for every edge of the data graph — the tree edges, then the
// links in collection order.  inside reports whether the edge is represented
// in a meta document's local graph (always within one meta document) or is a
// runtime link: a tree edge is inside unless it crosses meta documents
// (possible only for element-level sets), a link when included says so.
func (s *Set) edges(included []bool, fn func(from, to xmlgraph.NodeID, inside bool)) {
	c := s.Coll
	for n := xmlgraph.NodeID(0); int(n) < c.NumNodes(); n++ {
		if p := c.Parent(n); p != xmlgraph.InvalidNode {
			fn(p, n, s.MetaOf[p] == s.MetaOf[n])
		}
	}
	for i, l := range c.Links() {
		fn(l.From, l.To, included[i])
	}
}

// wire builds each meta document's local graph and the runtime link tables
// from the numbering Build/BuildElements laid down, in time linear in
// elements + links: one pass over the edges counts, a second fills arrays of
// exactly the counted size, and sortedness comes from visiting order
// (lgraph.FromAdjacency for the local graphs, the two bucket passes below for
// the link tables) instead of from sorting.  Every array is shared by all
// meta documents.
//
// Throughout, pos(n) = base[MetaOf[n]] + LocalOf[n] is n's position when the
// meta documents' local numberings are laid end to end.  Within one meta
// document local order is global order, which is what lets passes in global
// node order emit runs sorted by local ID.
func (s *Set) wire(included []bool) {
	c := s.Coll
	nNodes, nMetas := c.NumNodes(), len(s.Metas)
	base := make([]int32, nMetas+1)
	for mi, md := range s.Metas {
		base[mi+1] = base[mi] + int32(len(md.toGlobal))
	}
	pos := func(n xmlgraph.NodeID) int32 { return base[s.MetaOf[n]] + s.LocalOf[n] }

	// Pass 1: count, per position, the successors inside the meta document
	// and the runtime links by source (outOff) and by target (inOff).
	succOff := make([]int32, nNodes+1)
	outOff := make([]int32, nNodes+1)
	inOff := make([]int32, nNodes+1)
	s.edges(included, func(from, to xmlgraph.NodeID, inside bool) {
		if inside {
			succOff[pos(from)+1]++
		} else {
			outOff[pos(from)+1]++
			inOff[pos(to)+1]++
		}
	})
	for i := 0; i < nNodes; i++ {
		succOff[i+1] += succOff[i]
		outOff[i+1] += outOff[i]
		inOff[i+1] += inOff[i]
	}

	// Pass 2: fill the successor runs (in edge order; FromAdjacency sorts
	// them) and the runtime link targets by source position.
	succ := make([]int32, succOff[nNodes])
	linkTo := make([]xmlgraph.NodeID, outOff[nNodes])
	cursor := make([]int32, nNodes)
	linkCursor := make([]int32, nNodes)
	copy(cursor, succOff)
	copy(linkCursor, outOff)
	s.edges(included, func(from, to xmlgraph.NodeID, inside bool) {
		p := pos(from)
		if inside {
			succ[cursor[p]] = s.LocalOf[to]
			cursor[p]++
		} else {
			linkTo[linkCursor[p]] = to
			linkCursor[p]++
		}
	})

	// Local graphs.  A meta document numbers its tags in order of first
	// appearance; localTag translates the collection's tag IDs, stamped with
	// the meta document it is valid for.
	tags := make([]lgraph.Tag, nNodes)
	type slot struct {
		meta int
		tag  lgraph.Tag
	}
	localTag := make([]slot, len(c.TagNames()))
	var dict []int32 // every meta document's tags, as collection tag IDs
	dictStart := make([]int32, nMetas+1)
	for mi, md := range s.Metas {
		local := tags[base[mi]:base[mi+1]]
		for i, n := range md.toGlobal {
			id := c.TagID(n)
			sl := &localTag[id]
			if sl.meta != mi+1 {
				*sl = slot{meta: mi + 1, tag: lgraph.Tag(len(dict)) - dictStart[mi]}
				dict = append(dict, id)
			}
			local[i] = sl.tag
		}
		dictStart[mi+1] = int32(len(dict))
	}
	tagNames := make([]string, len(dict))
	for i, id := range dict {
		tagNames[i] = c.TagNames()[id]
	}
	// The same translation kept per meta document, dense over the
	// collection's tags (4 bytes × meta documents × distinct names), for
	// MetaDocument.LocalTag.
	nTags := len(c.TagNames())
	localTags := make([]lgraph.Tag, nMetas*nTags)
	for i := range localTags {
		localTags[i] = lgraph.NoTag
	}
	for mi, md := range s.Metas {
		md.localTag = localTags[mi*nTags : (mi+1)*nTags : (mi+1)*nTags]
		for t, id := range dict[dictStart[mi]:dictStart[mi+1]] {
			md.localTag[id] = lgraph.Tag(t)
		}
	}
	predOff := make([]int32, nNodes+1)
	pred := make([]int32, len(succ))
	for mi := range s.Metas {
		lo, hi := base[mi], base[mi+1]
		names := tagNames[dictStart[mi]:dictStart[mi+1]:dictStart[mi+1]]
		tagIDs := make(map[string]lgraph.Tag, len(names))
		for id, name := range names {
			tagIDs[name] = lgraph.Tag(id)
		}
		s.Metas[mi].Graph = lgraph.FromAdjacency(tags[lo:hi:hi], names, tagIDs,
			succOff[lo:hi+1], succ, predOff[lo:hi+1], pred, cursor[lo:hi])
	}

	// Runtime link tables.  Visiting sources in global order fills every
	// target's bucket in ascending source order, which is InLinks sorted by
	// (ToLocal, From); visiting targets in global order then fills every
	// source's bucket in ascending target order, which is OutLinks sorted by
	// (FromLocal, To).
	inLinks := make([]InLink, len(linkTo))
	copy(cursor, inOff)
	for n := xmlgraph.NodeID(0); int(n) < nNodes; n++ {
		p := pos(n)
		for _, to := range linkTo[outOff[p]:outOff[p+1]] {
			q := pos(to)
			inLinks[cursor[q]] = InLink{From: n, ToLocal: s.LocalOf[to]}
			cursor[q]++
		}
	}
	outLinks := make([]CrossLink, len(linkTo))
	copy(cursor, outOff)
	for n := xmlgraph.NodeID(0); int(n) < nNodes; n++ {
		p := pos(n)
		for _, il := range inLinks[inOff[p]:inOff[p+1]] {
			q := pos(il.From)
			outLinks[cursor[q]] = CrossLink{FromLocal: s.LocalOf[il.From], To: n}
			cursor[q]++
		}
	}
	nSources := 0
	for i := 0; i < nNodes; i++ {
		if outOff[i+1] > outOff[i] {
			nSources++
		}
	}
	sources := make([]int32, 0, nSources)
	starts := make([]int32, 0, nSources+nMetas)
	for mi, md := range s.Metas {
		lo, hi := base[mi], base[mi+1]
		md.OutLinks = outLinks[outOff[lo]:outOff[hi]:outOff[hi]]
		md.InLinks = inLinks[inOff[lo]:inOff[hi]:inOff[hi]]
		src, st := len(sources), len(starts)
		for i := lo; i < hi; i++ {
			if outOff[i+1] > outOff[i] {
				sources = append(sources, i-lo)
				starts = append(starts, outOff[i]-outOff[lo])
			}
		}
		starts = append(starts, outOff[hi]-outOff[lo])
		md.LinkSources = sources[src:len(sources):len(sources)]
		md.linkStart = starts[st:len(starts):len(starts)]
	}
}

// Validate checks the internal consistency of the set, for the tests of this
// package and of the packages that build sets.
func (s *Set) Validate() error {
	seen := make([]bool, s.Coll.NumNodes())
	for pi, md := range s.Metas {
		if md.Graph.NumNodes() != len(md.toGlobal) {
			return fmt.Errorf("meta %d: graph has %d nodes, mapping %d", pi, md.Graph.NumNodes(), len(md.toGlobal))
		}
		for local, g := range md.toGlobal {
			if seen[g] {
				return fmt.Errorf("node %d in two meta documents", g)
			}
			seen[g] = true
			if s.MetaOf[g] != int32(pi) || s.LocalOf[g] != int32(local) {
				return fmt.Errorf("node %d: inconsistent mapping", g)
			}
			if md.Graph.TagName(md.Graph.Tag(int32(local))) != s.Coll.Tag(g) {
				return fmt.Errorf("node %d: tag mismatch", g)
			}
		}
	}
	for _, ok := range seen {
		if !ok {
			return fmt.Errorf("meta set does not cover all nodes")
		}
	}
	return nil
}
