package flix

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/meta"
	"repro/internal/xmlgraph"
)

// TestParseConfigKind: ParseConfigKind and ConfigKind.String are inverses
// over the six valid kinds, and any other name is an error.
func TestParseConfigKind(t *testing.T) {
	for _, c := range []struct {
		name string
		kind ConfigKind
	}{
		{"naive", Naive},
		{"maximal-ppo", MaximalPPO},
		{"unconnected-hopi", UnconnectedHOPI},
		{"hybrid", Hybrid},
		{"monolithic", Monolithic},
		{"element-level", ElementLevel},
	} {
		if k, err := ParseConfigKind(c.name); err != nil || k != c.kind || k.String() != c.name {
			t.Errorf("ParseConfigKind(%q) = %v, %v; want %v", c.name, k, err, c.kind)
		}
	}
	for _, name := range []string{"", "bogus", "Hybrid", "element level", ConfigKind(6).String()} {
		if k, err := ParseConfigKind(name); err == nil {
			t.Errorf("ParseConfigKind(%q) = %v, want an error", name, k)
		}
	}
}

// allConfigs are the configurations exercised by the integration tests.
func allConfigs() []Config {
	return []Config{
		{Kind: Naive},
		{Kind: MaximalPPO},
		{Kind: UnconnectedHOPI, PartitionSize: 15},
		{Kind: UnconnectedHOPI, PartitionSize: 60},
		{Kind: Hybrid, PartitionSize: 15},
		{Kind: Monolithic},
		{Kind: Monolithic, Strategy: "apex"},
		{Kind: Monolithic, Strategy: "tc"},
		{Kind: Monolithic, Strategy: "hopi-dc"},
		{Kind: Monolithic, Strategy: "a1"},
		{Kind: Naive, Load: meta.LoadShortPaths},
		{Kind: ElementLevel, PartitionSize: 5},
		{Kind: ElementLevel, PartitionSize: 40},
	}
}

// buildSample creates the small linked collection used by the unit tests:
//
//	doc a: bib -> article1(author,title), article2(cite)
//	doc b: paper -> title
//	links: article2 -> paper (inter), cite -> article1 (intra)
func buildSample(t testing.TB) (*xmlgraph.Collection, map[string]xmlgraph.NodeID) {
	t.Helper()
	c := xmlgraph.NewCollection()
	ids := make(map[string]xmlgraph.NodeID)
	a := c.NewDocument("a")
	ids["bib"] = a.Enter("bib", "")
	ids["art1"] = a.Enter("article", "")
	ids["author1"] = a.AddLeaf("author", "")
	ids["title1"] = a.AddLeaf("title", "")
	a.Leave()
	ids["art2"] = a.Enter("article", "")
	ids["cite"] = a.AddLeaf("cite", "")
	a.Leave()
	a.Leave()
	a.Close()
	b := c.NewDocument("b")
	ids["paper"] = b.Enter("paper", "")
	ids["title2"] = b.AddLeaf("title", "")
	b.Leave()
	b.Close()
	c.AddLink(ids["art2"], ids["paper"], xmlgraph.EdgeInterLink)
	c.AddLink(ids["cite"], ids["art1"], xmlgraph.EdgeIntraLink)
	c.Freeze()
	return c, ids
}

func collect(ix *Index, start xmlgraph.NodeID, tag string, opts Options) []Result {
	var out []Result
	ix.Descendants(start, tag, opts, func(r Result) bool {
		out = append(out, r)
		return true
	})
	return out
}

func TestBuildRequiresFrozen(t *testing.T) {
	c := xmlgraph.NewCollection()
	b := c.NewDocument("d")
	b.Enter("r", "")
	b.Leave()
	b.Close()
	if _, err := Build(c, Config{}); err == nil {
		t.Error("Build on unfrozen collection must fail")
	}
}

func TestDescendantsAllConfigs(t *testing.T) {
	c, ids := buildSample(t)
	want := map[xmlgraph.NodeID]int32{} // oracle: title descendants of bib
	for _, nd := range c.DescendantsByTag(ids["bib"], "title") {
		want[nd.Node] = nd.Dist
	}
	for _, cfg := range allConfigs() {
		ix, err := Build(c, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		got := collect(ix, ids["bib"], "title", Options{})
		if len(got) != len(want) {
			t.Errorf("%v: got %d results, want %d: %v", cfg, len(got), len(want), got)
			continue
		}
		for _, r := range got {
			trueDist, ok := want[r.Node]
			if !ok {
				t.Errorf("%v: spurious result %v", cfg, r)
				continue
			}
			if r.Dist < trueDist {
				t.Errorf("%v: node %d distance %d below true %d", cfg, r.Node, r.Dist, trueDist)
			}
		}
	}
}

func TestDescendantsWildcard(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(ix, ids["art2"], "", Options{})
	// art2 reaches: cite, paper, title2, art1 (via cite link), author1,
	// title1.
	if len(got) != 6 {
		t.Errorf("wildcard results = %v", got)
	}
}

func TestIncludeSelf(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Monolithic})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(ix, ids["art1"], "article", Options{})
	if len(got) != 0 {
		t.Errorf("self excluded by default: %v", got)
	}
	got = collect(ix, ids["art1"], "article", Options{IncludeSelf: true})
	if len(got) != 1 || got[0].Node != ids["art1"] || got[0].Dist != 0 {
		t.Errorf("IncludeSelf: %v", got)
	}
}

func TestMaxResults(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(ix, ids["bib"], "", Options{MaxResults: 3})
	if len(got) != 3 {
		t.Errorf("MaxResults: got %d", len(got))
	}
}

func TestMaxDist(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(ix, ids["bib"], "title", Options{MaxDist: 2})
	// title1 at distance 2 qualifies; title2 at 3 does not.
	if len(got) != 1 || got[0].Node != ids["title1"] {
		t.Errorf("MaxDist: %v", got)
	}
}

func TestEmitCancel(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	ix.Descendants(ids["bib"], "", Options{}, func(r Result) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("cancel after first: %d", count)
	}
}

func TestExactOrderMonolithic(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Monolithic})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(ix, ids["bib"], "", Options{ExactOrder: true})
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Errorf("ExactOrder violated at %d: %v", i, got)
		}
	}
}

func TestTypeDescendants(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	var got []Result
	ix.TypeDescendants("article", "title", Options{}, func(r Result) bool {
		got = append(got, r)
		return true
	})
	// article//title: title1 (below art1, also below art2 via cite) and
	// title2 (below art2 via link).
	found := map[xmlgraph.NodeID]bool{}
	for _, r := range got {
		found[r.Node] = true
	}
	if !found[ids["title1"]] || !found[ids["title2"]] || len(got) != 2 {
		t.Errorf("TypeDescendants = %v", got)
	}
}

func TestConnected(t *testing.T) {
	c, ids := buildSample(t)
	for _, cfg := range allConfigs() {
		ix, err := Build(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := ix.Connected(ids["bib"], ids["title2"], 0); !ok || d < 3 {
			t.Errorf("%v: Connected(bib,title2) = %d,%t", cfg, d, ok)
		}
		if _, ok := ix.Connected(ids["title2"], ids["bib"], 0); ok {
			t.Errorf("%v: title2 must not reach bib", cfg)
		}
		if d, ok := ix.Connected(ids["cite"], ids["cite"], 0); !ok || d != 0 {
			t.Errorf("%v: self connection = %d,%t", cfg, d, ok)
		}
		// Threshold cuts off the long path.
		if _, ok := ix.Connected(ids["bib"], ids["title2"], 1); ok {
			t.Errorf("%v: threshold 1 must fail", cfg)
		}
	}
}

func TestConnectedBidirectional(t *testing.T) {
	c, ids := buildSample(t)
	for _, cfg := range allConfigs() {
		ix, err := Build(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d1, ok1 := ix.Connected(ids["bib"], ids["title2"], 0)
		d2, ok2 := ix.ConnectedBidirectional(ids["bib"], ids["title2"], 0)
		if ok1 != ok2 {
			t.Errorf("%v: fwd %t vs bidi %t", cfg, ok1, ok2)
		}
		if ok1 && d1 != d2 {
			t.Errorf("%v: fwd dist %d vs bidi %d", cfg, d1, d2)
		}
		if _, ok := ix.ConnectedBidirectional(ids["title2"], ids["bib"], 0); ok {
			t.Errorf("%v: bidi found nonexistent path", cfg)
		}
	}
}

func TestAncestors(t *testing.T) {
	c, ids := buildSample(t)
	for _, cfg := range allConfigs() {
		ix, err := Build(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []Result
		ix.Ancestors(ids["title2"], "", Options{}, func(r Result) bool {
			got = append(got, r)
			return true
		})
		want := map[xmlgraph.NodeID]bool{ids["paper"]: true, ids["art2"]: true, ids["bib"]: true}
		if len(got) != len(want) {
			t.Errorf("%v: ancestors = %v", cfg, got)
			continue
		}
		for _, r := range got {
			if !want[r.Node] {
				t.Errorf("%v: spurious ancestor %v", cfg, r)
			}
		}
		// Typed variant.
		got = nil
		ix.Ancestors(ids["title2"], "article", Options{}, func(r Result) bool {
			got = append(got, r)
			return true
		})
		if len(got) != 1 || got[0].Node != ids["art2"] {
			t.Errorf("%v: article ancestors = %v", cfg, got)
		}
	}
}

func TestDescribeAndCounts(t *testing.T) {
	c, _ := buildSample(t)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumMetaDocuments() != 2 {
		t.Errorf("meta docs = %d", ix.NumMetaDocuments())
	}
	counts := ix.StrategyCounts()
	// Doc a has an intra-document link (graph), doc b is a tree.
	if counts["ppo"] != 1 || counts["hopi"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if ix.Describe() == "" || ix.RuntimeLinks() != 1 {
		t.Errorf("Describe=%q RuntimeLinks=%d", ix.Describe(), ix.RuntimeLinks())
	}
}

func TestSizeBytes(t *testing.T) {
	c, _ := buildSample(t)
	var sizes []int64
	for _, cfg := range []Config{{Kind: Naive}, {Kind: Monolithic}, {Kind: Monolithic, Strategy: "tc"}} {
		ix, err := Build(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n, err := ix.SizeBytes()
		if err != nil || n <= 0 {
			t.Fatalf("SizeBytes: %d, %v", n, err)
		}
		sizes = append(sizes, n)
	}
	_ = sizes
}

// TestDupSeenSetEquivalence: the ablation duplicate-elimination mode must
// produce the same result set as the entry-point scheme, except possibly on
// the start element itself (the two schemes legitimately differ on whether
// a start lying on a cycle is re-reported; see Options.DupSeenSet).
func TestDupSeenSetEquivalence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := xmlgraph.RandomCollection(rng, 2+rng.Intn(8), 12, rng.Intn(18))
		ix, err := Build(c, Config{Kind: UnconnectedHOPI, PartitionSize: 20})
		if err != nil {
			return false
		}
		start := xmlgraph.NodeID(rng.Intn(c.NumNodes()))
		gather := func(opts Options) map[xmlgraph.NodeID]bool {
			out := make(map[xmlgraph.NodeID]bool)
			dup := false
			ix.Descendants(start, "", opts, func(r Result) bool {
				if out[r.Node] {
					dup = true
				}
				out[r.Node] = true
				return true
			})
			if dup {
				return nil
			}
			delete(out, start)
			return out
		}
		a := gather(Options{})
		b := gather(Options{DupSeenSet: true})
		if a == nil || b == nil || len(a) != len(b) {
			return false
		}
		for n := range a {
			if !b[n] {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// oracleCheck verifies, for one configuration and one random collection,
// that the streamed result set equals the BFS oracle and every reported
// distance is a valid path length (>= true shortest distance).
func oracleCheck(t *testing.T, c *xmlgraph.Collection, cfg Config, rng *rand.Rand) bool {
	t.Helper()
	ix, err := Build(c, cfg)
	if err != nil {
		t.Fatalf("%v: %v", cfg, err)
	}
	start := xmlgraph.NodeID(rng.Intn(c.NumNodes()))
	tags := []string{"a", "b", "c", "d", "e", ""}
	tag := tags[rng.Intn(len(tags))]

	trueDist := c.BFSDistances(start)
	want := make(map[xmlgraph.NodeID]int32)
	for n := range trueDist {
		if trueDist[n] > 0 && (tag == "" || c.Tag(xmlgraph.NodeID(n)) == tag) {
			want[xmlgraph.NodeID(n)] = trueDist[n]
		}
	}
	got := make(map[xmlgraph.NodeID]int32)
	dup := false
	ix.Descendants(start, tag, Options{}, func(r Result) bool {
		if _, seen := got[r.Node]; seen {
			dup = true
		}
		got[r.Node] = r.Dist
		return true
	})
	if dup {
		t.Logf("%v: duplicate results", cfg)
		return false
	}
	if len(got) != len(want) {
		t.Logf("%v: got %d results, want %d (start %d, tag %q)", cfg, len(got), len(want), start, tag)
		return false
	}
	for n, d := range got {
		td, ok := want[n]
		if !ok || d < td {
			t.Logf("%v: node %d dist %d vs true %d", cfg, n, d, td)
			return false
		}
	}
	return true
}

func TestPropertyAllConfigsMatchOracle(t *testing.T) {
	cfg := &quick.Config{MaxCount: 12}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := xmlgraph.RandomCollection(rng, 2+rng.Intn(8), 12, rng.Intn(18))
		for _, conf := range allConfigs() {
			if !oracleCheck(t, c, conf, rng) {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyConnectedMatchesOracle(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := xmlgraph.RandomCollection(rng, 2+rng.Intn(6), 10, rng.Intn(12))
		confs := allConfigs()
		conf := confs[rng.Intn(len(confs))]
		ix, err := Build(c, conf)
		if err != nil {
			return false
		}
		for trial := 0; trial < 6; trial++ {
			a := xmlgraph.NodeID(rng.Intn(c.NumNodes()))
			b := xmlgraph.NodeID(rng.Intn(c.NumNodes()))
			trueDist := c.BFSDistance(a, b)
			d, ok := ix.Connected(a, b, 0)
			if ok != (trueDist >= 0) {
				return false
			}
			if ok && d < trueDist {
				return false // distances are upper bounds, never below
			}
			d2, ok2 := ix.ConnectedBidirectional(a, b, 0)
			if ok2 != (trueDist >= 0) {
				return false
			}
			if ok2 && d2 < trueDist {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyAncestorsMatchOracle holds the reverse axis to the collection's
// BFS under every duplicate rule and sink: the default stream and the seen-set
// stream report exactly the oracle's nodes, each once (the seen set may add the
// start itself when it lies on a cycle, as on the forward axis), and ExactOrder
// is the default stream sorted by (dist, node).
func TestPropertyAncestorsMatchOracle(t *testing.T) {
	cfg := &quick.Config{MaxCount: 12}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := xmlgraph.RandomCollection(rng, 2+rng.Intn(6), 10, rng.Intn(12))
		confs := allConfigs()
		conf := confs[rng.Intn(len(confs))]
		ix, err := Build(c, conf)
		if err != nil {
			return false
		}
		start := xmlgraph.NodeID(rng.Intn(c.NumNodes()))
		want := make(map[xmlgraph.NodeID]bool)
		for _, n := range c.Ancestors(start) {
			want[n] = true
		}
		def := collectRun(func(fn Emit) { ix.Ancestors(start, "", Options{}, fn) })
		for _, opts := range []Options{{}, {DupSeenSet: true}} {
			got := make(map[xmlgraph.NodeID]bool)
			for _, r := range collectRun(func(fn Emit) { ix.Ancestors(start, "", opts, fn) }) {
				if got[r.Node] {
					return false
				}
				got[r.Node] = true
			}
			if opts.DupSeenSet && !want[start] {
				delete(got, start)
			}
			if len(got) != len(want) {
				return false
			}
			for n := range got {
				if !want[n] {
					return false
				}
			}
		}
		slices.SortFunc(def, func(x, y Result) int {
			return cmp.Or(cmp.Compare(x.Dist, y.Dist), cmp.Compare(x.Node, y.Node))
		})
		exact := collectRun(func(fn Emit) { ix.Ancestors(start, "", Options{ExactOrder: true}, fn) })
		return slices.Equal(exact, def)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyExactOrderSortedAndComplete: with ExactOrder, every
// configuration must emit in non-decreasing distance and still deliver the
// complete result set.
func TestPropertyExactOrderSortedAndComplete(t *testing.T) {
	cfg := &quick.Config{MaxCount: 12}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := xmlgraph.RandomCollection(rng, 2+rng.Intn(8), 12, rng.Intn(18))
		confs := allConfigs()
		conf := confs[rng.Intn(len(confs))]
		ix, err := Build(c, conf)
		if err != nil {
			return false
		}
		start := xmlgraph.NodeID(rng.Intn(c.NumNodes()))
		want := len(c.Descendants(start))
		last := int32(-1)
		got := 0
		sorted := true
		ix.Descendants(start, "", Options{ExactOrder: true}, func(r Result) bool {
			if r.Dist < last {
				sorted = false
				return false
			}
			last = r.Dist
			got++
			return true
		})
		return sorted && got == want
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestMaximalPPOOnTreeCollection: on a collection whose data graph is one
// tree (documents linked root-to-root), Maximal PPO must index everything
// with a single PPO meta document and zero runtime links — the ideal case
// of §4.3.
func TestMaximalPPOOnTreeCollection(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := xmlgraph.RandomTreeCollection(rng, 2+rng.Intn(10), 8)
		ix, err := Build(c, Config{Kind: MaximalPPO})
		if err != nil {
			return false
		}
		if ix.NumMetaDocuments() != 1 || ix.RuntimeLinks() != 0 {
			return false
		}
		counts := ix.StrategyCounts()
		if counts["ppo"] != 1 {
			return false
		}
		// Exactness follows: verify one query against the oracle.
		start := xmlgraph.NodeID(rng.Intn(c.NumNodes()))
		trueDist := c.BFSDistances(start)
		exact := true
		ix.Descendants(start, "", Options{}, func(r Result) bool {
			if trueDist[r.Node] != r.Dist {
				exact = false
				return false
			}
			return true
		})
		return exact
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyMonolithicExact: with a single meta document there are no
// runtime links, so distances and ordering must be exact.
func TestPropertyMonolithicExact(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := xmlgraph.RandomCollection(rng, 1+rng.Intn(5), 12, rng.Intn(10))
		ix, err := Build(c, Config{Kind: Monolithic})
		if err != nil {
			return false
		}
		start := xmlgraph.NodeID(rng.Intn(c.NumNodes()))
		trueDist := c.BFSDistances(start)
		last := int32(-1)
		exact := true
		ix.Descendants(start, "", Options{}, func(r Result) bool {
			if r.Dist != trueDist[r.Node] || r.Dist < last {
				exact = false
				return false
			}
			last = r.Dist
			return true
		})
		return exact
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
