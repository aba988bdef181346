package xmlgraph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDescendantsOracle(t *testing.T) {
	c, ids := buildSmall(t)
	desc := c.Descendants(ids["bib"])
	if len(desc) != 7 { // everything except bib itself
		t.Errorf("Descendants(bib) = %v", desc)
	}
	// BFS order: nearer nodes first.
	dist := c.BFSDistances(ids["bib"])
	last := int32(0)
	for _, n := range desc {
		if dist[n] < last {
			t.Errorf("Descendants not in BFS order: %v", desc)
		}
		last = dist[n]
	}
	if got := c.Descendants(ids["title2"]); len(got) != 0 {
		t.Errorf("leaf has descendants: %v", got)
	}
}

func TestSortNodeDists(t *testing.T) {
	s := []NodeDist{{Node: 3, Dist: 2}, {Node: 1, Dist: 1}, {Node: 2, Dist: 1}}
	SortNodeDists(s)
	if s[0].Node != 1 || s[1].Node != 2 || s[2].Node != 3 {
		t.Errorf("SortNodeDists = %v", s)
	}
}

func TestBuilderAccessors(t *testing.T) {
	c := NewCollection()
	b := c.NewDocument("d")
	if b.Current() != InvalidNode {
		t.Error("Current before Enter")
	}
	root := b.Enter("r", "")
	if b.Current() != root {
		t.Error("Current after Enter")
	}
	b.AppendText("hello ")
	b.AppendText("world")
	if b.DocID() != 0 {
		t.Errorf("DocID = %d", b.DocID())
	}
	b.Leave()
	b.Close()
	c.Freeze()
	if !c.Frozen() {
		t.Error("Frozen after Freeze")
	}
	if c.Node(root).Text != "hello world" {
		t.Errorf("text = %q", c.Node(root).Text)
	}
	mustPanic(t, "SetXMLID outside element", func() {
		c2 := NewCollection()
		c2.NewDocument("x").SetXMLID("id")
	})
	mustPanic(t, "AppendText outside element", func() {
		c2 := NewCollection()
		c2.NewDocument("x").AppendText("t")
	})
}

func TestLinkIterationBeforeFreeze(t *testing.T) {
	// OutLinks/InLinks fall back to a linear scan before Freeze.
	c := NewCollection()
	b := c.NewDocument("d")
	b.Enter("r", "")
	x := b.AddLeaf("x", "")
	y := b.AddLeaf("y", "")
	b.Leave()
	b.Close()
	c.AddLink(x, y, EdgeIntraLink)
	outs := 0
	c.OutLinks(x, func(Link) { outs++ })
	ins := 0
	c.InLinks(y, func(Link) { ins++ })
	if outs != 1 || ins != 1 {
		t.Errorf("pre-freeze link iteration: out=%d in=%d", outs, ins)
	}
}

func TestStatsString(t *testing.T) {
	c, _ := buildSmall(t)
	s := ComputeStats(c).String()
	for _, want := range []string{"docs=2", "links=2", "tree=false"} {
		if !strings.Contains(s, want) {
			t.Errorf("Stats.String() = %q missing %q", s, want)
		}
	}
}

func TestRandomTreeCollectionIsTree(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := RandomTreeCollection(rng, 2+rng.Intn(10), 8)
		st := ComputeStats(c)
		// The defining property: G_X is a single tree spanning all
		// documents.
		if !st.IsTree || st.HasCycle {
			return false
		}
		// Links = docs - 1 (a spanning tree of the document graph).
		return st.Links == st.Docs-1
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestTagIDOf(t *testing.T) {
	c := RandomCollection(rand.New(rand.NewSource(3)), 8, 12, 10)
	for n := NodeID(0); int(n) < c.NumNodes(); n++ {
		if got := c.TagIDOf(c.Tag(n)); got != c.TagID(n) {
			t.Fatalf("TagIDOf(%q) = %d, node %d carries tag ID %d", c.Tag(n), got, n, c.TagID(n))
		}
	}
	for _, name := range []string{"", "no-such-element"} {
		if got := c.TagIDOf(name); got != -1 {
			t.Errorf("TagIDOf(%q) = %d, want -1", name, got)
		}
	}
}

// TestUpdateDerived: the slot starts empty, holds what fn returns, and runs
// one fn at a time — a value computed inside is seen by everyone who waited.
// Run under -race.
func TestUpdateDerived(t *testing.T) {
	c := RandomCollection(rand.New(rand.NewSource(3)), 4, 6, 2)
	c.UpdateDerived(func(cur any) any {
		if cur != nil {
			t.Errorf("a fresh collection holds %v", cur)
		}
		return cur
	})
	type counter struct{ computed, seen int }
	const callers = 8
	done := make(chan struct{})
	for i := 0; i < callers; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			c.UpdateDerived(func(cur any) any {
				if cur == nil {
					cur = &counter{computed: 1}
				}
				cur.(*counter).seen++
				return cur
			})
		}()
	}
	for i := 0; i < callers; i++ {
		<-done
	}
	c.UpdateDerived(func(cur any) any {
		if got := *cur.(*counter); got != (counter{computed: 1, seen: callers}) {
			t.Errorf("after %d callers the slot holds %+v", callers, got)
		}
		return nil
	})
	c.UpdateDerived(func(cur any) any {
		if cur != nil {
			t.Errorf("the slot holds %v after a caller emptied it", cur)
		}
		return cur
	})
}
