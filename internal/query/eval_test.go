package query

import (
	"math"
	"testing"

	"repro/internal/flix"
	"repro/internal/ontology"
	"repro/internal/xmlgraph"
)

// movieCollection models the paper's introduction scenario: one source uses
// movie/cast/actor, another uses science-fiction with actors one level
// deeper and a follow-up movie linked from the first.
func movieCollection(t testing.TB) (*xmlgraph.Collection, map[string]xmlgraph.NodeID) {
	t.Helper()
	c := xmlgraph.NewCollection()
	ids := make(map[string]xmlgraph.NodeID)

	a := c.NewDocument("matrix.xml")
	ids["movie1"] = a.Enter("movie", "")
	ids["title1"] = a.AddLeaf("title", "Matrix: Revolutions")
	a.Enter("cast", "")
	ids["actor1"] = a.Enter("actor", "")
	a.AddLeaf("name", "Keanu Reeves")
	a.Leave()
	a.Leave()
	ids["follows"] = a.AddLeaf("follows", "")
	a.Leave()
	a.Close()

	b := c.NewDocument("matrix2.xml")
	ids["movie2"] = b.Enter("science-fiction", "")
	ids["title2"] = b.AddLeaf("title", "Matrix 3")
	b.Enter("credits", "")
	b.Enter("people", "")
	ids["actor2"] = b.AddLeaf("actor", "Carrie-Anne Moss")
	b.Leave()
	b.Leave()
	b.Leave()
	b.Close()

	c.AddLink(ids["follows"], ids["movie2"], xmlgraph.EdgeInterLink)
	c.Freeze()
	return c, ids
}

func buildEval(t testing.TB) (*Evaluator, map[string]xmlgraph.NodeID) {
	t.Helper()
	c, ids := movieCollection(t)
	ix, err := flix.Build(c, flix.Config{Kind: flix.Hybrid, PartitionSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	o := ontology.New()
	if err := o.AddSimilarity("movie", "science-fiction", 0.8); err != nil {
		t.Fatal(err)
	}
	return &Evaluator{Index: ix, Ontology: o}, ids
}

func mustParse(t testing.TB, s string) *Query {
	t.Helper()
	q, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestEvaluateSimpleDescendant(t *testing.T) {
	e, ids := buildEval(t)
	got := e.EvaluateTopK(mustParse(t, "//movie//actor"), 0)
	// Only actor1 sits below a literal movie... except the link makes
	// actor2 reachable from movie1 too.
	found := map[xmlgraph.NodeID]float64{}
	for _, m := range got {
		found[m.Node] = m.Score
	}
	if len(found) != 2 {
		t.Fatalf("results = %v", got)
	}
	// actor1 at distance 2 scores decay^1 = 0.8; actor2 at distance 5
	// via the link scores less.
	if math.Abs(found[ids["actor1"]]-0.8) > 1e-9 {
		t.Errorf("actor1 score = %g", found[ids["actor1"]])
	}
	if found[ids["actor2"]] >= found[ids["actor1"]] {
		t.Errorf("actor2 should rank below actor1: %v", got)
	}
}

func TestEvaluateSemanticVagueness(t *testing.T) {
	e, ids := buildEval(t)
	// Without ~: science-fiction roots are not movies.
	got := e.EvaluateTopK(mustParse(t, "//movie"), 0)
	if len(got) != 1 || got[0].Node != ids["movie1"] {
		t.Fatalf("//movie = %v", got)
	}
	// With ~: the ontology admits science-fiction at 0.8.
	got = e.EvaluateTopK(mustParse(t, "//~movie"), 0)
	if len(got) != 2 {
		t.Fatalf("//~movie = %v", got)
	}
	if got[0].Node != ids["movie1"] || got[0].Score != 1 {
		t.Errorf("first = %+v", got[0])
	}
	if got[1].Node != ids["movie2"] || math.Abs(got[1].Score-0.8) > 1e-9 {
		t.Errorf("second = %+v", got[1])
	}
}

func TestEvaluatePredicate(t *testing.T) {
	e, ids := buildEval(t)
	got := e.EvaluateTopK(mustParse(t, `//~movie//title[text~"matrix"]`), 0)
	if len(got) != 2 {
		t.Fatalf("results = %v", got)
	}
	got = e.EvaluateTopK(mustParse(t, `//title[text="Matrix 3"]`), 0)
	if len(got) != 1 || got[0].Node != ids["title2"] {
		t.Errorf("exact predicate = %v", got)
	}
	got = e.EvaluateTopK(mustParse(t, `//title[text="matrix 3"]`), 0) // exact is case-sensitive
	if len(got) != 0 {
		t.Errorf("case-sensitive exact matched: %v", got)
	}
}

func TestEvaluateChildAxis(t *testing.T) {
	e, ids := buildEval(t)
	got := e.EvaluateTopK(mustParse(t, "/movie/title"), 0)
	if len(got) != 1 || got[0].Node != ids["title1"] {
		t.Errorf("/movie/title = %v", got)
	}
	// cast/actor requires two child steps; title is not below cast.
	got = e.EvaluateTopK(mustParse(t, "/movie/cast/actor"), 0)
	if len(got) != 1 || got[0].Node != ids["actor1"] {
		t.Errorf("/movie/cast/actor = %v", got)
	}
}

func TestEvaluateRelaxedFindsDeepActors(t *testing.T) {
	e, ids := buildEval(t)
	// The paper's full example: ~movie//actor//... here the relaxed query
	// //~movie//actor must find the deep actor under science-fiction.
	got := e.EvaluateTopK(mustParse(t, "//~movie//actor"), 0)
	found := map[xmlgraph.NodeID]bool{}
	for _, m := range got {
		found[m.Node] = true
	}
	if !found[ids["actor1"]] || !found[ids["actor2"]] {
		t.Errorf("relaxed query missed actors: %v", got)
	}
	// Ranking is by descending score.
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Errorf("not ranked: %v", got)
		}
	}
}

func TestEvaluateWildcardStep(t *testing.T) {
	e, _ := buildEval(t)
	got := e.EvaluateTopK(mustParse(t, "//cast/*"), 0)
	if len(got) != 1 {
		t.Errorf("//cast/* = %v", got)
	}
}

func TestEvaluateNoMatch(t *testing.T) {
	e, _ := buildEval(t)
	if got := e.EvaluateTopK(mustParse(t, "//nonexistent//actor"), 0); got != nil {
		t.Errorf("expected nil, got %v", got)
	}
}

func TestMaxDistForBoundsSearch(t *testing.T) {
	d := maxDistFor(1.0)
	// decay 0.8, minScore 0.01: 0.8^(d-1) >= 0.01 => d-1 <= 20.6.
	if d < 20 || d > 23 {
		t.Errorf("maxDistFor(1) = %d", d)
	}
	if maxDistFor(0.02) >= d {
		t.Error("lower score must shrink the bound")
	}
}
