package meta

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dblp"
	"repro/internal/lgraph"
	"repro/internal/partition"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// sameGraph compares two local graphs through everything an index builder or
// a probe can observe: size, per-node tag and adjacency runs in order, and
// the tag dictionary in both directions.
func sameGraph(got, want *lgraph.LGraph) error {
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() || got.NumTags() != want.NumTags() {
		return fmt.Errorf("%d nodes/%d edges/%d tags, reference %d/%d/%d",
			got.NumNodes(), got.NumEdges(), got.NumTags(), want.NumNodes(), want.NumEdges(), want.NumTags())
	}
	for t := lgraph.Tag(0); int(t) < want.NumTags(); t++ {
		if got.TagName(t) != want.TagName(t) || got.TagOf(want.TagName(t)) != t {
			return fmt.Errorf("tag %d is %q (TagOf %d), reference %q", t, got.TagName(t), got.TagOf(want.TagName(t)), want.TagName(t))
		}
	}
	if got.TagOf("no-such-element") != lgraph.NoTag {
		return fmt.Errorf("unknown element name has a tag")
	}
	for u := int32(0); int(u) < want.NumNodes(); u++ {
		if got.Tag(u) != want.Tag(u) {
			return fmt.Errorf("node %d: tag %d, reference %d", u, got.Tag(u), want.Tag(u))
		}
		if !slices.Equal(got.Succs(u), want.Succs(u)) {
			return fmt.Errorf("node %d: successors %v, reference %v", u, got.Succs(u), want.Succs(u))
		}
		if !slices.Equal(got.Preds(u), want.Preds(u)) {
			return fmt.Errorf("node %d: predecessors %v, reference %v", u, got.Preds(u), want.Preds(u))
		}
	}
	return nil
}

// sameSet compares a built Set with the frozen reference's, field by field.
func sameSet(got *Set, want *referenceSet) error {
	if err := got.Validate(); err != nil {
		return err
	}
	if !slices.Equal(got.MetaOf, want.MetaOf) || !slices.Equal(got.LocalOf, want.LocalOf) {
		return fmt.Errorf("MetaOf/LocalOf differ")
	}
	if len(got.Metas) != len(want.Metas) {
		return fmt.Errorf("%d meta documents, reference %d", len(got.Metas), len(want.Metas))
	}
	for mi, g := range got.Metas {
		w := want.Metas[mi]
		fail := func(format string, args ...any) error {
			return fmt.Errorf("meta %d: %s", mi, fmt.Sprintf(format, args...))
		}
		if g.ID != w.ID || !slices.Equal(g.Docs, w.Docs) {
			return fail("ID/Docs differ")
		}
		if !slices.Equal(g.toGlobal, w.toGlobal) {
			return fail("ToGlobal differs")
		}
		if err := sameGraph(g.Graph, w.Graph); err != nil {
			return fail("graph: %v", err)
		}
		// The dense tag table answers what the graph's name map answers.
		for id, name := range got.Coll.TagNames() {
			if lt := g.LocalTag(int32(id)); lt != w.Graph.TagOf(name) {
				return fail("LocalTag(%d) = %d, reference TagOf(%q) = %d", id, lt, name, w.Graph.TagOf(name))
			}
		}
		if g.LocalTag(-1) != lgraph.NoTag {
			return fail("LocalTag(-1) is a tag")
		}
		if !slices.Equal(g.OutLinks, w.OutLinks) {
			return fail("OutLinks %v, reference %v", g.OutLinks, w.OutLinks)
		}
		if !slices.Equal(g.InLinks, w.InLinks) {
			return fail("InLinks %v, reference %v", g.InLinks, w.InLinks)
		}
		if !slices.Equal(g.LinkSources, w.LinkSources) {
			return fail("LinkSources %v, reference %v", g.LinkSources, w.LinkSources)
		}
		for i, ls := range g.LinkSources {
			if !slices.Equal(g.LinksFrom(i), want.linkOf[mi][ls]) {
				return fail("LinksFrom(%d) %v, reference %v", i, g.LinksFrom(i), want.linkOf[mi][ls])
			}
		}
	}
	return nil
}

// TestBuildMatchesReference compares Build and BuildElements with the frozen
// builder (reference_test.go) over every partitioner, every collection
// family and the synthetic DBLP corpus at three scales.
func TestBuildMatchesReference(t *testing.T) {
	type corpus struct {
		name string
		c    *xmlgraph.Collection
	}
	var corpora []corpus
	for _, f := range testutil.Families() {
		for seed := int64(1); seed <= 4; seed++ {
			corpora = append(corpora, corpus{
				fmt.Sprintf("%s/seed=%d", f, seed),
				testutil.Generate(f, seed, 30+int(seed)*10, 25, 90),
			})
		}
	}
	for _, docs := range []int{200, 1200, 6210} {
		if docs > 200 && testing.Short() {
			continue
		}
		corpora = append(corpora, corpus{fmt.Sprintf("dblp/%d", docs), dblp.Generate(dblp.Scaled(docs)).BuildGraph()})
	}
	for _, co := range corpora {
		for _, p := range []struct {
			name string
			r    *partition.Result
		}{
			{"singleton", partition.Singleton(co.c)},
			{"whole", partition.Whole(co.c)},
			{"trees", partition.TreePartitions(co.c)},
			{"bounded-50", partition.SizeBounded(co.c, 50)},
			{"hybrid-50", partition.Hybrid(co.c, 50, 2)},
			{"hybrid-5000", partition.Hybrid(co.c, 5000, 2)},
		} {
			if err := sameSet(Build(co.c, p.r), referenceBuild(co.c, p.r)); err != nil {
				t.Errorf("%s: Build(%s): %v", co.name, p.name, err)
			}
		}
		// Element-level sets cut tree edges, the only source of runtime
		// links that are not data links; 7 splits nearly every document.
		for _, maxNodes := range []int{7, 60, 5000} {
			assign, parts := partition.ElementLevel(co.c, maxNodes)
			if err := sameSet(BuildElements(co.c, assign, parts), referenceBuildElements(co.c, assign, parts)); err != nil {
				t.Errorf("%s: BuildElements(%d): %v", co.name, maxNodes, err)
			}
		}
	}
}

// TestSetNotWrittenAfterBuild: a Set is shared by every index generation over
// its collection, so what consumes it must leave it as Build returned it.
// Every registered strategy selects and builds over every meta document,
// Validate runs, and the Set must still equal the frozen reference.
func TestSetNotWrittenAfterBuild(t *testing.T) {
	for _, f := range testutil.Families() {
		c := testutil.Generate(f, 5, 30, 20, 60)
		r := partition.Hybrid(c, 50, 2)
		s, want := Build(c, r), referenceBuild(c, r)
		if err := sameSet(s, want); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for name := range Registry {
			for _, load := range []QueryLoad{LoadDescendants, LoadShortPaths} {
				for _, md := range s.Metas {
					if _, _, err := BuildIndexTimed(md, load, name); err != nil {
						t.Fatalf("%s: %s: %v", f, name, err)
					}
				}
			}
		}
		if err := sameSet(s, want); err != nil {
			t.Errorf("%s: the Set changed under the index builders: %v", f, err)
		}
	}
}
