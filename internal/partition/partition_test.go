package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xmlgraph"
)

// figure1 reproduces the collection of Figure 1 of the paper: documents 1-4
// form a tree (root-to-root links), documents 5-10 are densely interlinked.
func figure1(t testing.TB) *xmlgraph.Collection {
	t.Helper()
	c := xmlgraph.NewCollection()
	roots := make([]xmlgraph.NodeID, 11) // 1-based
	leaves := make([]xmlgraph.NodeID, 11)
	for i := 1; i <= 10; i++ {
		b := c.NewDocument(docName(i))
		roots[i] = b.Enter("doc", "")
		leaves[i] = b.AddLeaf("item", "")
		b.AddLeaf("item", "")
		b.Leave()
		b.Close()
	}
	link := func(from, to int, toRoot bool) {
		target := roots[to]
		if !toRoot {
			target = leaves[to]
		}
		c.AddLink(leaves[from], target, xmlgraph.EdgeInterLink)
	}
	// Tree region: 1 -> 2, 1 -> 3, 3 -> 4 (all to roots).
	link(1, 2, true)
	link(1, 3, true)
	link(3, 4, true)
	// Dense region: cycles and mid-document links among 5..10.
	link(5, 6, true)
	link(6, 7, false)
	link(7, 5, true)
	link(7, 8, false)
	link(8, 9, true)
	link(9, 10, false)
	link(10, 8, true)
	link(6, 9, false)
	// One link from the dense region into the tree region (like doc 5 ->
	// doc 4 in Figure 3).
	link(5, 4, false)
	c.Freeze()
	return c
}

func docName(i int) string {
	return string(rune('d')) + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func docIDs(t *testing.T, c *xmlgraph.Collection, names ...int) map[xmlgraph.DocID]bool {
	t.Helper()
	out := make(map[xmlgraph.DocID]bool)
	for _, n := range names {
		d, ok := c.DocByName(docName(n))
		if !ok {
			t.Fatalf("doc %d missing", n)
		}
		out[d] = true
	}
	return out
}

// checkPartitionInvariants verifies that parts are disjoint and cover all
// documents, and that PartOf matches Parts.
func checkPartitionInvariants(t *testing.T, c *xmlgraph.Collection, r *Result) {
	t.Helper()
	seen := make(map[xmlgraph.DocID]int32)
	for pi, part := range r.Parts {
		for _, d := range part {
			if old, dup := seen[d]; dup {
				t.Fatalf("doc %d in parts %d and %d", d, old, pi)
			}
			seen[d] = int32(pi)
			if r.PartOf[d] != int32(pi) {
				t.Fatalf("PartOf[%d] = %d, want %d", d, r.PartOf[d], pi)
			}
		}
	}
	if len(seen) != c.NumDocs() {
		t.Fatalf("parts cover %d of %d docs", len(seen), c.NumDocs())
	}
	for i, l := range c.Links() {
		if r.IncludedLinks[i] && r.PartOf[c.DocOf(l.From)] != r.PartOf[c.DocOf(l.To)] {
			t.Fatalf("link %d included across parts", i)
		}
	}
}

func TestSingleton(t *testing.T) {
	c := figure1(t)
	r := Singleton(c)
	checkPartitionInvariants(t, c, r)
	if len(r.Parts) != 10 {
		t.Errorf("parts = %d, want 10", len(r.Parts))
	}
	// All links are inter-document here, so none are included.
	if r.CrossLinks() != c.NumLinks() {
		t.Errorf("CrossLinks = %d, want %d", r.CrossLinks(), c.NumLinks())
	}
}

func TestWhole(t *testing.T) {
	c := figure1(t)
	r := Whole(c)
	checkPartitionInvariants(t, c, r)
	if len(r.Parts) != 1 || r.CrossLinks() != 0 {
		t.Errorf("Whole: parts=%d cross=%d", len(r.Parts), r.CrossLinks())
	}
}

// treeForest checks that every part of r, together with its included links,
// forms a forest (single incoming edge per element, no cycles).
func treeForest(t *testing.T, c *xmlgraph.Collection, r *Result) {
	t.Helper()
	for pi, part := range r.Parts {
		indeg := make(map[xmlgraph.NodeID]int)
		for _, d := range part {
			first, last := c.Doc(d).Nodes()
			for n := first; n < last; n++ {
				if c.Parent(n) != xmlgraph.InvalidNode {
					indeg[n]++
				}
			}
		}
		for i, l := range c.Links() {
			if r.IncludedLinks[i] && r.PartOf[c.DocOf(l.From)] == int32(pi) {
				indeg[l.To]++
			}
		}
		for n, deg := range indeg {
			if deg > 1 {
				t.Fatalf("part %d: node %d has %d incoming edges", pi, n, deg)
			}
		}
	}
}

func TestTreePartitionsFigure1(t *testing.T) {
	c := figure1(t)
	r := TreePartitions(c)
	checkPartitionInvariants(t, c, r)
	treeForest(t, c, r)
	// Documents 1-4 must end up in a single tree partition.
	want := docIDs(t, c, 1, 2, 3, 4)
	found := false
	for _, part := range r.Parts {
		if len(part) == 4 {
			all := true
			for _, d := range part {
				if !want[d] {
					all = false
				}
			}
			if all {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("tree region 1-4 not grouped: %v", r.Parts)
	}
}

func TestTreePartitionsRejectsMidDocumentLinks(t *testing.T) {
	c := xmlgraph.NewCollection()
	b1 := c.NewDocument("a")
	b1.Enter("r", "")
	l1 := b1.AddLeaf("x", "")
	b1.Leave()
	b1.Close()
	b2 := c.NewDocument("b")
	b2.Enter("r", "")
	mid := b2.AddLeaf("y", "")
	b2.Leave()
	b2.Close()
	c.AddLink(l1, mid, xmlgraph.EdgeInterLink) // into the middle of b
	c.Freeze()
	r := TreePartitions(c)
	checkPartitionInvariants(t, c, r)
	if r.IncludedLinks[0] {
		t.Error("mid-document link must not be included")
	}
	if len(r.Parts) != 2 {
		t.Errorf("parts = %d, want 2", len(r.Parts))
	}
}

func TestTreePartitionsCycle(t *testing.T) {
	// Two documents linking to each other's roots: only one link can be
	// accepted.
	c := xmlgraph.NewCollection()
	var roots, leaves []xmlgraph.NodeID
	for _, n := range []string{"a", "b"} {
		b := c.NewDocument(n)
		roots = append(roots, b.Enter("r", ""))
		leaves = append(leaves, b.AddLeaf("x", ""))
		b.Leave()
		b.Close()
	}
	c.AddLink(leaves[0], roots[1], xmlgraph.EdgeInterLink)
	c.AddLink(leaves[1], roots[0], xmlgraph.EdgeInterLink)
	c.Freeze()
	r := TreePartitions(c)
	checkPartitionInvariants(t, c, r)
	treeForest(t, c, r)
	if r.IncludedLinks[0] == r.IncludedLinks[1] {
		t.Errorf("exactly one of the two cycle links must be accepted: %v", r.IncludedLinks)
	}
	if len(r.Parts) != 1 {
		t.Errorf("parts = %d, want 1 (both docs in one tree)", len(r.Parts))
	}
}

func TestTreePartitionsIntraDocLink(t *testing.T) {
	c := xmlgraph.NewCollection()
	b := c.NewDocument("a")
	b.Enter("r", "")
	x := b.AddLeaf("x", "")
	y := b.AddLeaf("y", "")
	b.Leave()
	b.Close()
	c.AddLink(x, y, xmlgraph.EdgeIntraLink)
	c.Freeze()
	r := TreePartitions(c)
	checkPartitionInvariants(t, c, r)
	// The doc is not tree-capable; it becomes a singleton with its
	// intra-document link included (a graph strategy will index it).
	if len(r.Parts) != 1 || !r.IncludedLinks[0] {
		t.Errorf("parts=%d included=%v", len(r.Parts), r.IncludedLinks)
	}
}

func TestSizeBounded(t *testing.T) {
	c := figure1(t)
	r := SizeBounded(c, 9) // three 3-element docs per part
	checkPartitionInvariants(t, c, r)
	for pi, part := range r.Parts {
		size := 0
		for _, d := range part {
			size += c.Doc(d).Size()
		}
		if size > 9 {
			t.Errorf("part %d has %d nodes (> 9)", pi, size)
		}
	}
	// The dense region should mostly stick together: the partitioner must
	// produce fewer parts than documents.
	if len(r.Parts) >= 10 {
		t.Errorf("no grouping happened: %d parts", len(r.Parts))
	}
}

func TestSizeBoundedOversizedDoc(t *testing.T) {
	c := xmlgraph.NewCollection()
	b := c.NewDocument("big")
	b.Enter("r", "")
	for i := 0; i < 20; i++ {
		b.AddLeaf("x", "")
	}
	b.Leave()
	b.Close()
	c.Freeze()
	r := SizeBounded(c, 5)
	checkPartitionInvariants(t, c, r)
	if len(r.Parts) != 1 {
		t.Errorf("oversized doc must form its own part: %v", r.Parts)
	}
}

func TestSizeBoundedUnbounded(t *testing.T) {
	c := figure1(t)
	r := SizeBounded(c, 0)
	checkPartitionInvariants(t, c, r)
	// With no bound, linked documents collapse into connected groups.
	if len(r.Parts) > 3 {
		t.Errorf("parts = %d, expected few", len(r.Parts))
	}
}

func TestHybridFigure1(t *testing.T) {
	c := figure1(t)
	r := Hybrid(c, 100, 2)
	checkPartitionInvariants(t, c, r)
	// Tree region 1-4 grouped; 5-10 in size-bounded parts.
	tree := docIDs(t, c, 1, 2, 3, 4)
	for _, part := range r.Parts {
		hasTree, hasDense := false, false
		for _, d := range part {
			if tree[d] {
				hasTree = true
			} else {
				hasDense = true
			}
		}
		if hasTree && hasDense {
			t.Errorf("part mixes tree and dense docs: %v", part)
		}
	}
}

func TestElementLevel(t *testing.T) {
	c := figure1(t)
	a := ElementLevel(c, 7)
	assign, parts := a.MetaOf, a.Parts
	if parts < 2 {
		t.Fatalf("parts = %d", parts)
	}
	counts := make([]int, parts)
	for n, p := range assign {
		if p < 0 || int(p) >= parts {
			t.Fatalf("node %d assigned to %d of %d", n, p, parts)
		}
		counts[p]++
	}
	for p, cnt := range counts {
		if cnt > 7 {
			t.Errorf("part %d has %d elements (> 7)", p, cnt)
		}
		if cnt == 0 {
			t.Errorf("part %d empty", p)
		}
	}
}

func TestElementLevelSplitsOversizedDoc(t *testing.T) {
	c := xmlgraph.NewCollection()
	b := c.NewDocument("big")
	b.Enter("r", "")
	for i := 0; i < 30; i++ {
		b.AddLeaf("x", "")
	}
	b.Leave()
	b.Close()
	c.Freeze()
	parts := ElementLevel(c, 10).Parts
	if parts < 3 {
		t.Errorf("31-element doc with cap 10 gave %d parts, want >= 3", parts)
	}
}

func TestElementLevelUnbounded(t *testing.T) {
	c := figure1(t)
	a := ElementLevel(c, 0)
	assign, parts := a.MetaOf, a.Parts
	if parts != 1 {
		t.Errorf("unbounded: %d parts", parts)
	}
	for _, p := range assign {
		if p != 0 {
			t.Fatal("unbounded assignment not uniform")
		}
	}
}

func TestPropertyElementLevelInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := xmlgraph.RandomCollection(rng, 1+rng.Intn(10), 12, rng.Intn(15))
		cap := 1 + rng.Intn(20)
		a := ElementLevel(c, cap)
		assign, parts := a.MetaOf, a.Parts
		if len(assign) != c.NumNodes() {
			return false
		}
		counts := make([]int, parts)
		for _, p := range assign {
			if p < 0 || int(p) >= parts {
				return false
			}
			counts[p]++
		}
		for _, cnt := range counts {
			if cnt == 0 || cnt > cap {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := xmlgraph.RandomCollection(rng, 2+rng.Intn(12), 10, rng.Intn(20))
		for _, r := range []*Result{
			Singleton(c),
			Whole(c),
			TreePartitions(c),
			SizeBounded(c, 15),
			Hybrid(c, 15, 2),
		} {
			seen := make(map[xmlgraph.DocID]bool)
			for pi, part := range r.Parts {
				for _, d := range part {
					if seen[d] || r.PartOf[d] != int32(pi) {
						return false
					}
					seen[d] = true
				}
			}
			if len(seen) != c.NumDocs() {
				return false
			}
			for i, l := range c.Links() {
				if r.IncludedLinks[i] && r.PartOf[c.DocOf(l.From)] != r.PartOf[c.DocOf(l.To)] {
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyTreePartitionsAreForests: every TreePartitions part with its
// included links must satisfy the single-parent property.
func TestPropertyTreePartitionsAreForests(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := xmlgraph.RandomCollection(rng, 2+rng.Intn(10), 8, rng.Intn(15))
		r := TreePartitions(c)
		for pi, part := range r.Parts {
			// Skip non-tree-capable singletons (they keep their
			// intra-document links on purpose).
			intra := false
			for i, l := range c.Links() {
				if c.DocOf(l.From) == c.DocOf(l.To) && r.PartOf[c.DocOf(l.From)] == int32(pi) && r.IncludedLinks[i] {
					intra = true
				}
			}
			if intra && len(part) == 1 {
				continue
			}
			indeg := make(map[xmlgraph.NodeID]int)
			for _, d := range part {
				first, last := c.Doc(d).Nodes()
				for n := first; n < last; n++ {
					if c.Parent(n) != xmlgraph.InvalidNode {
						indeg[n]++
					}
				}
			}
			for i, l := range c.Links() {
				if r.IncludedLinks[i] && r.PartOf[c.DocOf(l.From)] == int32(pi) &&
					c.DocOf(l.From) != c.DocOf(l.To) {
					indeg[l.To]++
				}
			}
			for _, deg := range indeg {
				if deg > 1 {
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
