package meta

// A frozen copy of the Meta Document Builder as it stood before the
// linear-time rewrite (commit 6c3dce6), kept as a differential reference:
// the v2 snapshot container persists no meta documents, so a builder that
// renumbers one element or reorders one adjacency run orphans every deployed
// snapshot.  Do not "fix" or speed up this file; TestBuildMatchesReference
// compares the live code against it.  (The reference assembles its graphs
// through lgraph.Builder, whose own sort-based predecessor is frozen in
// lgraph's tests.)

import (
	"sort"

	"repro/internal/lgraph"
	"repro/internal/partition"
	"repro/internal/xmlgraph"
)

// referenceSet is what the old builder produced; linkOf was the map behind
// LinksFrom.
type referenceSet struct {
	*Set
	linkOf []map[int32][]CrossLink
}

func referenceBuild(c *xmlgraph.Collection, r *partition.Result) *referenceSet {
	s := &Set{
		Coll:    c,
		MetaOf:  make([]int32, c.NumNodes()),
		LocalOf: make([]int32, c.NumNodes()),
	}
	s.Metas = make([]*MetaDocument, len(r.Parts))
	for pi, docs := range r.Parts {
		md := &MetaDocument{ID: pi}
		for _, d := range docs {
			first, last := c.Doc(d).Nodes()
			for n := first; n < last; n++ {
				s.MetaOf[n] = int32(pi)
				s.LocalOf[n] = int32(len(md.toGlobal))
				md.toGlobal = append(md.toGlobal, n)
			}
		}
		s.Metas[pi] = md
	}
	return referenceWireEdges(s, func(i int) bool { return r.IncludedLinks[i] })
}

func referenceBuildElements(c *xmlgraph.Collection, assign []int32, parts int) *referenceSet {
	s := &Set{
		Coll:    c,
		MetaOf:  make([]int32, c.NumNodes()),
		LocalOf: make([]int32, c.NumNodes()),
	}
	s.Metas = make([]*MetaDocument, parts)
	for pi := range s.Metas {
		s.Metas[pi] = &MetaDocument{ID: pi}
	}
	for n := xmlgraph.NodeID(0); int(n) < c.NumNodes(); n++ {
		md := s.Metas[assign[n]]
		s.MetaOf[n] = assign[n]
		s.LocalOf[n] = int32(len(md.toGlobal))
		md.toGlobal = append(md.toGlobal, n)
	}
	return referenceWireEdges(s, func(i int) bool {
		l := c.Links()[i]
		return assign[l.From] == assign[l.To]
	})
}

func referenceWireEdges(s *Set, linkIncluded func(i int) bool) *referenceSet {
	c := s.Coll
	ref := &referenceSet{Set: s, linkOf: make([]map[int32][]CrossLink, len(s.Metas))}
	builders := make([]*lgraph.Builder, len(s.Metas))
	for pi, md := range s.Metas {
		b := lgraph.NewBuilder()
		for _, n := range md.toGlobal {
			b.AddNode(c.Tag(n))
		}
		builders[pi] = b
	}
	cross := func(from, to xmlgraph.NodeID) {
		src := s.Metas[s.MetaOf[from]]
		src.OutLinks = append(src.OutLinks, CrossLink{FromLocal: s.LocalOf[from], To: to})
		dst := s.Metas[s.MetaOf[to]]
		dst.InLinks = append(dst.InLinks, InLink{From: from, ToLocal: s.LocalOf[to]})
	}
	for pi, md := range s.Metas {
		for _, n := range md.toGlobal {
			c.EachChild(n, func(ch xmlgraph.NodeID) {
				if s.MetaOf[ch] == int32(pi) {
					builders[pi].AddEdge(s.LocalOf[n], s.LocalOf[ch])
				} else {
					cross(n, ch)
				}
			})
		}
	}
	for i, l := range c.Links() {
		if linkIncluded(i) {
			pi := s.MetaOf[l.From]
			builders[pi].AddEdge(s.LocalOf[l.From], s.LocalOf[l.To])
			continue
		}
		cross(l.From, l.To)
	}
	for pi, md := range s.Metas {
		md.Graph = builders[pi].Finish()
		sort.Slice(md.OutLinks, func(a, b int) bool {
			if md.OutLinks[a].FromLocal != md.OutLinks[b].FromLocal {
				return md.OutLinks[a].FromLocal < md.OutLinks[b].FromLocal
			}
			return md.OutLinks[a].To < md.OutLinks[b].To
		})
		sort.Slice(md.InLinks, func(a, b int) bool {
			if md.InLinks[a].ToLocal != md.InLinks[b].ToLocal {
				return md.InLinks[a].ToLocal < md.InLinks[b].ToLocal
			}
			return md.InLinks[a].From < md.InLinks[b].From
		})
		ref.linkOf[pi] = make(map[int32][]CrossLink)
		for _, cl := range md.OutLinks {
			if len(ref.linkOf[pi][cl.FromLocal]) == 0 {
				md.LinkSources = append(md.LinkSources, cl.FromLocal)
			}
			ref.linkOf[pi][cl.FromLocal] = append(ref.linkOf[pi][cl.FromLocal], cl)
		}
	}
	return ref
}
