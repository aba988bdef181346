package xmlgraph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// buildSmall constructs a two-document collection:
//
//	doc a:           doc b:
//	  bib              paper
//	  ├─ article        └─ title
//	  │   ├─ author
//	  │   └─ title
//	  └─ article ──link──> paper (inter-document)
//	        └─ cite ─link─> first article (intra-document)
func buildSmall(t testing.TB) (*Collection, map[string]NodeID) {
	t.Helper()
	c := NewCollection()
	ids := make(map[string]NodeID)

	a := c.NewDocument("a")
	ids["bib"] = a.Enter("bib", "")
	ids["art1"] = a.Enter("article", "")
	ids["author1"] = a.AddLeaf("author", "Mohan")
	ids["title1"] = a.AddLeaf("title", "ARIES")
	a.Leave()
	ids["art2"] = a.Enter("article", "")
	ids["cite"] = a.AddLeaf("cite", "")
	a.Leave()
	a.Leave()
	a.Close()

	b := c.NewDocument("b")
	ids["paper"] = b.Enter("paper", "")
	ids["title2"] = b.AddLeaf("title", "HOPI")
	b.Leave()
	b.Close()

	c.AddLink(ids["art2"], ids["paper"], EdgeInterLink)
	c.AddLink(ids["cite"], ids["art1"], EdgeIntraLink)
	c.Freeze()
	return c, ids
}

func TestBuilderBasics(t *testing.T) {
	c, ids := buildSmall(t)
	if got := c.NumDocs(); got != 2 {
		t.Fatalf("NumDocs = %d, want 2", got)
	}
	if got := c.NumNodes(); got != 8 {
		t.Fatalf("NumNodes = %d, want 8", got)
	}
	if got := c.NumLinks(); got != 2 {
		t.Fatalf("NumLinks = %d, want 2", got)
	}
	// 8 nodes - 2 roots + 2 links = 8 edges.
	if got := c.NumEdges(); got != 8 {
		t.Fatalf("NumEdges = %d, want 8", got)
	}
	if c.Tag(ids["art1"]) != "article" {
		t.Errorf("Tag(art1) = %q", c.Tag(ids["art1"]))
	}
	if c.Parent(ids["author1"]) != ids["art1"] {
		t.Errorf("Parent(author1) wrong")
	}
	if c.Parent(ids["bib"]) != InvalidNode {
		t.Errorf("root parent should be InvalidNode")
	}
	var kids []NodeID
	kids = c.Children(ids["bib"], kids)
	want := []NodeID{ids["art1"], ids["art2"]}
	if !reflect.DeepEqual(kids, want) {
		t.Errorf("Children(bib) = %v, want %v", kids, want)
	}
	if d, ok := c.DocByName("b"); !ok || c.Doc(d).Root != ids["paper"] {
		t.Errorf("DocByName(b) wrong: %v %v", d, ok)
	}
	if c.Text(ids["title1"]) != "ARIES" {
		t.Errorf("text lost")
	}
}

func TestSuccessorsAndPredecessors(t *testing.T) {
	c, ids := buildSmall(t)
	var succ []NodeID
	c.EachSuccessor(ids["art2"], func(n NodeID) { succ = append(succ, n) })
	want := []NodeID{ids["cite"], ids["paper"]}
	if !reflect.DeepEqual(succ, want) {
		t.Errorf("EachSuccessor(art2) = %v, want %v", succ, want)
	}
	var pred []NodeID
	c.EachPredecessor(ids["art1"], func(n NodeID) { pred = append(pred, n) })
	want = []NodeID{ids["bib"], ids["cite"]}
	if !reflect.DeepEqual(pred, want) {
		t.Errorf("EachPredecessor(art1) = %v, want %v", pred, want)
	}
}

func TestBFSDistances(t *testing.T) {
	c, ids := buildSmall(t)
	dist := c.BFSDistances(ids["bib"])
	cases := map[string]int32{
		"bib": 0, "art1": 1, "author1": 2, "title1": 2,
		"art2": 1, "cite": 2, "paper": 2, "title2": 3,
	}
	for name, want := range cases {
		if got := dist[ids[name]]; got != want {
			t.Errorf("dist(bib, %s) = %d, want %d", name, got, want)
		}
	}
	// paper cannot reach bib.
	if got := c.BFSDistance(ids["paper"], ids["bib"]); got != -1 {
		t.Errorf("dist(paper, bib) = %d, want -1", got)
	}
	// cite reaches author1 through the intra-document link.
	if got := c.BFSDistance(ids["cite"], ids["author1"]); got != 2 {
		t.Errorf("dist(cite, author1) = %d, want 2", got)
	}
}

func TestReachable(t *testing.T) {
	c, ids := buildSmall(t)
	if !c.Reachable(ids["bib"], ids["title2"]) {
		t.Error("bib should reach title2 via inter-document link")
	}
	if c.Reachable(ids["title2"], ids["bib"]) {
		t.Error("title2 must not reach bib")
	}
	if !c.Reachable(ids["cite"], ids["cite"]) {
		t.Error("self reachability must hold")
	}
}

func TestDescendantsByTag(t *testing.T) {
	c, ids := buildSmall(t)
	got := c.DescendantsByTag(ids["bib"], "title")
	want := []NodeDist{
		{Node: ids["title1"], Dist: 2},
		{Node: ids["title2"], Dist: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DescendantsByTag = %v, want %v", got, want)
	}
}

func TestAncestors(t *testing.T) {
	c, ids := buildSmall(t)
	anc := c.Ancestors(ids["title2"])
	seen := make(map[NodeID]bool)
	for _, n := range anc {
		seen[n] = true
	}
	for _, name := range []string{"paper", "art2", "bib"} {
		if !seen[ids[name]] {
			t.Errorf("Ancestors(title2) missing %s", name)
		}
	}
	if seen[ids["author1"]] {
		t.Error("author1 is not an ancestor of title2")
	}
}

func TestTreeDescendantsDocumentOrder(t *testing.T) {
	c, ids := buildSmall(t)
	got := c.TreeDescendants(ids["bib"])
	want := []NodeID{ids["art1"], ids["author1"], ids["title1"], ids["art2"], ids["cite"]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TreeDescendants = %v, want %v", got, want)
	}
}

func TestPathAndDepth(t *testing.T) {
	c, ids := buildSmall(t)
	if got := c.Path(ids["author1"]); !reflect.DeepEqual(got, []string{"bib", "article", "author"}) {
		t.Errorf("Path = %v", got)
	}
	if got := c.Depth(ids["author1"]); got != 2 {
		t.Errorf("Depth = %d, want 2", got)
	}
	if got := c.Depth(ids["bib"]); got != 0 {
		t.Errorf("Depth(root) = %d, want 0", got)
	}
}

func TestTagsAndNodesByTag(t *testing.T) {
	c, ids := buildSmall(t)
	tags := c.Tags()
	want := []string{"article", "author", "bib", "cite", "paper", "title"}
	if !reflect.DeepEqual(tags, want) {
		t.Errorf("Tags = %v, want %v", tags, want)
	}
	arts := c.NodesByTag("article")
	if !reflect.DeepEqual(arts, []NodeID{ids["art1"], ids["art2"]}) {
		t.Errorf("NodesByTag(article) = %v", arts)
	}
}

func TestXMLID(t *testing.T) {
	c := NewCollection()
	b := c.NewDocument("d")
	b.Enter("root", "")
	b.Enter("sec", "")
	b.SetXMLID("s1")
	b.Leave()
	b.Leave()
	b.Close()
	c.Freeze()
	d, _ := c.DocByName("d")
	if n := c.FindByXMLID(d, "s1"); n == InvalidNode || c.Tag(n) != "sec" {
		t.Errorf("FindByXMLID failed: %v", n)
	}
	if n := c.FindByXMLID(d, "nope"); n != InvalidNode {
		t.Errorf("FindByXMLID(nope) = %v, want InvalidNode", n)
	}
}

func TestStats(t *testing.T) {
	c, _ := buildSmall(t)
	st := ComputeStats(c)
	if st.Docs != 2 || st.Nodes != 8 || st.Links != 2 || st.Inter != 1 || st.Intra != 1 {
		t.Errorf("stats wrong: %+v", st)
	}
	if st.Tags != 6 {
		t.Errorf("Tags = %d, want 6", st.Tags)
	}
	if st.MaxDepth != 2 {
		t.Errorf("MaxDepth = %d, want 2", st.MaxDepth)
	}
	if st.MaxDoc != 6 {
		t.Errorf("MaxDoc = %d, want 6", st.MaxDoc)
	}
	if st.HasCycle {
		t.Error("collection has no cycle")
	}
	if st.IsTree {
		t.Error("art1 has two incoming edges; not a tree")
	}
}

func TestStatsTreeDetection(t *testing.T) {
	// Figure 3 of the paper: documents linked root-to-root form a tree.
	c := NewCollection()
	var roots []NodeID
	var leaves []NodeID
	for _, name := range []string{"1", "2", "3", "4", "5"} {
		b := c.NewDocument(name)
		r := b.Enter("doc", "")
		leaves = append(leaves, b.AddLeaf("item", ""))
		b.Leave()
		b.Close()
		roots = append(roots, r)
	}
	// 1 -> 2, 1 -> 3, 2 -> 4, 3 -> 5 (all to roots): a tree.
	c.AddLink(leaves[0], roots[1], EdgeInterLink)
	c.AddLink(leaves[0], roots[2], EdgeInterLink)
	c.AddLink(leaves[1], roots[3], EdgeInterLink)
	c.AddLink(leaves[2], roots[4], EdgeInterLink)
	c.Freeze()
	st := ComputeStats(c)
	if !st.IsTree {
		t.Errorf("root-to-root linked docs should be a tree: %+v", st)
	}
	if st.HasCycle {
		t.Error("no cycle expected")
	}
}

func TestStatsCycleDetection(t *testing.T) {
	c := NewCollection()
	b1 := c.NewDocument("x")
	r1 := b1.Enter("a", "")
	l1 := b1.AddLeaf("ref", "")
	b1.Leave()
	b1.Close()
	b2 := c.NewDocument("y")
	r2 := b2.Enter("b", "")
	l2 := b2.AddLeaf("ref", "")
	b2.Leave()
	b2.Close()
	c.AddLink(l1, r2, EdgeInterLink)
	c.AddLink(l2, r1, EdgeInterLink)
	c.Freeze()
	st := ComputeStats(c)
	if !st.HasCycle {
		t.Error("cycle between documents not detected")
	}
	if st.IsTree {
		t.Error("cyclic graph cannot be a tree")
	}
}

func TestFreezePanics(t *testing.T) {
	c, _ := buildSmall(t)
	mustPanic(t, "AddLink after Freeze", func() { c.AddLink(0, 1, EdgeChild) })
	mustPanic(t, "NewDocument after Freeze", func() { c.NewDocument("z") })
}

func TestBuilderPanics(t *testing.T) {
	c := NewCollection()
	b := c.NewDocument("d")
	mustPanic(t, "Leave without Enter", func() { b.Leave() })
	mustPanic(t, "Close empty", func() { b.Close() })
	b.Enter("r", "")
	mustPanic(t, "Close with open elements", func() { b.Close() })
	b.Leave()
	mustPanic(t, "second root", func() { b.Enter("r2", "") })
	b.Close()
	mustPanic(t, "duplicate doc name", func() { c.NewDocument("d") })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestRandomCollectionInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := RandomCollection(rng, 1+rng.Intn(8), 20, rng.Intn(15))
		// Every non-root node's parent link is consistent with Children.
		for d := 0; d < c.NumDocs(); d++ {
			first, last := c.Doc(DocID(d)).Nodes()
			for n := first; n < last; n++ {
				if p := c.Parent(n); p != InvalidNode {
					found := false
					c.EachChild(p, func(ch NodeID) {
						if ch == n {
							found = true
						}
					})
					if !found {
						return false
					}
				} else if c.Doc(DocID(d)).Root != n {
					return false
				}
			}
		}
		// BFS distance symmetry with distances array.
		if c.NumNodes() > 1 {
			x := NodeID(rng.Intn(c.NumNodes()))
			y := NodeID(rng.Intn(c.NumNodes()))
			all := c.BFSDistances(x)
			if got := c.BFSDistance(x, y); got != all[y] {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestEdgeKindString(t *testing.T) {
	if EdgeChild.String() != "child" || EdgeIntraLink.String() != "intra-link" ||
		EdgeInterLink.String() != "inter-link" {
		t.Error("EdgeKind.String wrong")
	}
	if EdgeKind(9).String() != "EdgeKind(9)" {
		t.Error("unknown EdgeKind.String wrong")
	}
}
