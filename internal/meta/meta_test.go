package meta

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/partition"
	"repro/internal/xmlgraph"
)

// buildLinked: two documents with one runtime link between them.
func buildLinked(t testing.TB) *xmlgraph.Collection {
	t.Helper()
	c := xmlgraph.NewCollection()
	a := c.NewDocument("a")
	a.Enter("bib", "")
	art := a.Enter("article", "")
	a.AddLeaf("author", "")
	a.Leave()
	a.Leave()
	a.Close()
	b := c.NewDocument("b")
	r := b.Enter("paper", "")
	b.AddLeaf("title", "")
	b.Leave()
	b.Close()
	c.AddLink(art, r, xmlgraph.EdgeInterLink)
	c.Freeze()
	return c
}

func TestBuildSingleton(t *testing.T) {
	c := buildLinked(t)
	s := Build(c, partition.Singleton(c).Assignment(c))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Metas) != 2 {
		t.Fatalf("metas = %d", len(s.Metas))
	}
	m0 := s.Metas[0]
	if m0.Graph.NumNodes() != 3 {
		t.Errorf("meta 0 nodes = %d", m0.Graph.NumNodes())
	}
	// The inter-document link is a runtime link from meta 0 to meta 1.
	if len(m0.OutLinks) != 1 {
		t.Fatalf("meta 0 out links = %d", len(m0.OutLinks))
	}
	cl := m0.OutLinks[0]
	if c.Tag(m0.ToGlobal(cl.FromLocal)) != "article" {
		t.Errorf("link source tag = %q", c.Tag(m0.ToGlobal(cl.FromLocal)))
	}
	if c.Tag(cl.To) != "paper" {
		t.Errorf("link target tag = %q", c.Tag(cl.To))
	}
	if len(s.Metas[1].InLinks) != 1 {
		t.Errorf("meta 1 in links = %d", len(s.Metas[1].InLinks))
	}
	if len(m0.LinkSources) != 1 || len(m0.LinksFrom(0)) != 1 {
		t.Error("LinkSources wrong")
	}
}

func TestBuildWhole(t *testing.T) {
	c := buildLinked(t)
	s := Build(c, partition.Whole(c).Assignment(c))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Metas) != 1 {
		t.Fatalf("metas = %d", len(s.Metas))
	}
	m := s.Metas[0]
	if len(m.OutLinks) != 0 || len(m.InLinks) != 0 {
		t.Error("whole collection must have no runtime links")
	}
	// The included link appears as a local edge: article -> paper.
	if m.Graph.NumEdges() != c.NumEdges() {
		t.Errorf("edges = %d, want %d", m.Graph.NumEdges(), c.NumEdges())
	}
}

func TestLocalGlobalMapping(t *testing.T) {
	c := buildLinked(t)
	s := Build(c, partition.Singleton(c).Assignment(c))
	for n := xmlgraph.NodeID(0); int(n) < c.NumNodes(); n++ {
		md := s.Metas[s.MetaOf[n]]
		if md.ToGlobal(s.LocalOf[n]) != n {
			t.Errorf("mapping roundtrip failed for %d", n)
		}
	}
}

func TestSelector(t *testing.T) {
	c := buildLinked(t)
	s := Build(c, partition.Singleton(c).Assignment(c))
	// Both singleton docs are trees: auto picks PPO.
	if got := Select(s.Metas[0], LoadDescendants, ""); got.Name != "ppo" {
		t.Errorf("forest meta selected %s", got.Name)
	}
	// Preference respected when applicable.
	for _, name := range []string{"hopi", "apex", "ppo"} {
		if got := Select(s.Metas[0], LoadShortPaths, name); got.Name != name {
			t.Errorf("preference %s ignored: %s", name, got.Name)
		}
	}
	// Unknown preference falls back.
	if got := Select(s.Metas[0], LoadDescendants, "nope"); got.Name != "ppo" {
		t.Errorf("unknown preference: %s", got.Name)
	}
}

func TestSelectorNonForest(t *testing.T) {
	c := xmlgraph.NewCollection()
	b := c.NewDocument("d")
	b.Enter("r", "")
	x := b.AddLeaf("x", "")
	y := b.AddLeaf("y", "")
	b.Leave()
	b.Close()
	c.AddLink(x, y, xmlgraph.EdgeIntraLink) // y gets two parents
	c.Freeze()
	s := Build(c, partition.Singleton(c).Assignment(c))
	if got := Select(s.Metas[0], LoadDescendants, ""); got.Name != "hopi" {
		t.Errorf("graph meta selected %s, want hopi", got.Name)
	}
	if got := Select(s.Metas[0], LoadShortPaths, ""); got.Name != "apex" {
		t.Errorf("short-path load selected %s, want apex", got.Name)
	}
	// PPO preference is infeasible and must fall back.
	if got := Select(s.Metas[0], LoadDescendants, "ppo"); got.Name != "ppo" && got.Name != "hopi" {
		t.Errorf("unexpected fallback %s", got.Name)
	} else if got.Name == "ppo" {
		t.Error("ppo selected for non-forest graph")
	}
	if got := Select(s.Metas[0], LoadShortPaths, "ppo"); got.Name != "apex" {
		t.Errorf("infeasible ppo preference under a short-path load selected %s, want apex", got.Name)
	}
	// BuildIndex end to end.
	idx, _, err := BuildIndexTimed(s.Metas[0], LoadDescendants, "")
	if err != nil {
		t.Fatal(err)
	}
	if idx.Name() != "hopi" || idx.NumNodes() != 3 {
		t.Errorf("BuildIndex: %s %d", idx.Name(), idx.NumNodes())
	}
}

func TestLocalGraphSemantics(t *testing.T) {
	// Included links become edges: distances inside a meta document must
	// equal the collection BFS distances when everything is one meta doc.
	c := buildLinked(t)
	s := Build(c, partition.Whole(c).Assignment(c))
	m := s.Metas[0]
	for n := xmlgraph.NodeID(0); int(n) < c.NumNodes(); n++ {
		want := c.BFSDistances(n)
		got := m.Graph.BFSDistances(s.LocalOf[n], false)
		for v := xmlgraph.NodeID(0); int(v) < c.NumNodes(); v++ {
			if got[s.LocalOf[v]] != want[v] {
				t.Fatalf("dist(%d,%d): local %d, global %d", n, v, got[s.LocalOf[v]], want[v])
			}
		}
	}
}

func TestBuildElements(t *testing.T) {
	c := buildLinked(t)
	// Split the 5 elements into two meta documents by hand: doc a's
	// article subtree goes with doc b (cross-document grouping), the
	// rest stays.  Node order: bib=0 art=1 author=2 paper=3 title=4.
	assign := []int32{0, 1, 1, 1, 1}
	s := Build(c, partition.ByElement(c, assign, 2))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// The tree edge bib->article crosses partitions: one runtime link
	// from meta 0.  The data link article->paper stays inside meta 1.
	if len(s.Metas[0].OutLinks) != 1 {
		t.Fatalf("meta 0 out links = %v", s.Metas[0].OutLinks)
	}
	if got := s.Metas[0].OutLinks[0].To; got != 1 {
		t.Errorf("cross tree edge target = %d, want 1 (article)", got)
	}
	if len(s.Metas[1].OutLinks) != 0 {
		t.Errorf("meta 1 out links = %v", s.Metas[1].OutLinks)
	}
	// Meta 1's local graph: article->author, article->paper (included
	// link), paper->title = 3 edges over 4 nodes.
	if s.Metas[1].Graph.NumNodes() != 4 || s.Metas[1].Graph.NumEdges() != 3 {
		t.Errorf("meta 1 graph: %d nodes, %d edges",
			s.Metas[1].Graph.NumNodes(), s.Metas[1].Graph.NumEdges())
	}
	// Edge conservation.
	localEdges, cross := 0, 0
	for _, m := range s.Metas {
		localEdges += m.Graph.NumEdges()
		cross += len(m.OutLinks)
	}
	if localEdges+cross != c.NumEdges() {
		t.Errorf("edges: %d local + %d cross != %d total", localEdges, cross, c.NumEdges())
	}
}

func TestPropertyBuildElementsConsistent(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := xmlgraph.RandomCollection(rng, 1+rng.Intn(8), 10, rng.Intn(12))
		s := Build(c, partition.ElementLevel(c, 1+rng.Intn(15)))
		if s.Validate() != nil {
			return false
		}
		localEdges, cross := 0, 0
		for _, m := range s.Metas {
			localEdges += m.Graph.NumEdges()
			cross += len(m.OutLinks)
		}
		return localEdges+cross == c.NumEdges()
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyBuildConsistent(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := xmlgraph.RandomCollection(rng, 2+rng.Intn(10), 10, rng.Intn(15))
		for _, r := range []*partition.Result{
			partition.Singleton(c),
			partition.Whole(c),
			partition.TreePartitions(c),
			partition.SizeBounded(c, 20),
			partition.Hybrid(c, 20, 2),
		} {
			s := Build(c, r.Assignment(c))
			if s.Validate() != nil {
				return false
			}
			// Runtime links + local edges = all edges.
			localEdges, cross := 0, 0
			for _, m := range s.Metas {
				localEdges += m.Graph.NumEdges()
				cross += len(m.OutLinks)
			}
			if localEdges+cross != c.NumEdges() {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
