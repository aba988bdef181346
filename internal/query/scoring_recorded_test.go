package query

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/dblp"
	"repro/internal/flix"
	"repro/internal/ontology"
	"repro/internal/xmlgraph"
)

// deepChainCollection is one document whose root a heads a chain of 24
// nested elements: depth d is named b when d is odd, p when d%4 == 2 and q
// when d%4 == 0.  So //a//b has a result at every odd distance up to 23,
// among them distance 21, whose score at base 1 is decay^20 ≈ 0.0115, just
// above minScore.  A second document, linked from depth 6, repeats the
// shape at half the depth.
func deepChainCollection() *xmlgraph.Collection {
	c := xmlgraph.NewCollection()
	chain := func(name string, depth int) (hook xmlgraph.NodeID, root xmlgraph.NodeID) {
		b := c.NewDocument(name)
		root = b.Enter("a", "")
		for d := 1; d <= depth; d++ {
			tag := "b"
			switch d % 4 {
			case 2:
				tag = "p"
			case 0:
				tag = "q"
			}
			n := b.Enter(tag, fmt.Sprintf("%s-%d", tag, d))
			if d == 6 {
				hook = n
			}
		}
		for d := 0; d <= depth; d++ {
			b.Leave()
		}
		b.Close()
		return hook, root
	}
	hook, _ := chain("deep.xml", 24)
	_, side := chain("side.xml", 12)
	c.AddLink(hook, side, xmlgraph.EdgeInterLink)
	c.Freeze()
	return c
}

// chainedOntology relates x to y at 0.7 and y to z at 0.68: the expansion
// of ~x reaches z at 0.7 × 0.68 = 0.476, just below minTagScore.
func chainedOntology(t *testing.T, x, y, z string) *ontology.Ontology {
	t.Helper()
	o := ontology.New()
	if err := o.AddSimilarity(x, y, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := o.AddSimilarity(y, z, 0.68); err != nil {
		t.Fatal(err)
	}
	return o
}

// hashRanked writes every answer of EvaluateTopK at k = 0 (all), 1, 10
// and 100 for each query: per match its node, the bits of its score and
// its path length.
func hashRanked(t *testing.T, h hash.Hash, e *Evaluator, exprs []string) {
	t.Helper()
	write := func(label string, ms []Match) {
		fmt.Fprintf(h, "%s %d\n", label, len(ms))
		for _, m := range ms {
			fmt.Fprintf(h, "%d %016x %d\n", m.Node, math.Float64bits(m.Score), m.PathLen)
		}
	}
	for _, expr := range exprs {
		q := mustParse(t, expr)
		write(expr+" all", e.EvaluateTopK(q, 0))
		for _, k := range []int{1, 10, 100} {
			write(fmt.Sprintf("%s k=%d", expr, k), e.EvaluateTopK(q, k))
		}
	}
}

// TestRankedScoringRecorded holds the ranked answers to the scoring model
// they had when it was recorded: the decay per extra edge, the similarity
// below which ontology expansions are pruned and the score below which
// results are dropped.  The queries make each of the three bite: the deep
// chain has a result scoring in [0.01, 0.012), both ontologies have an
// expansion scoring in [0.45, 0.5), and every path of more than one edge
// decays.  Each query runs with InverseScore 0 and 0.5, with and without
// the ontology.  Recorded at 57872bc, while the three were still
// Evaluator fields defaulting to the same values.  Never re-record it: a
// diff means a ranked query answers something else.
func TestRankedScoringRecorded(t *testing.T) {
	const recorded = "073242c78d07febb057dbaaace991fb48530c0732d4eca998a1b4af8ac5c03f9"
	corpora := []struct {
		name  string
		coll  *xmlgraph.Collection
		onto  *ontology.Ontology
		exprs []string
	}{
		{"deep", deepChainCollection(), chainedOntology(t, "b", "p", "q"),
			[]string{"//a//b", "//a//~b", "//~b//b", "//b//a", "//a//*", "/a//~b//q", "//~b"}},
		{"dblp", dblp.Generate(dblp.Scaled(400)).BuildGraph(), chainedOntology(t, "title", "booktitle", "journal"),
			[]string{"//article//author", "//inproceedings//~title", "//~title", "//article//cite//~title", "//author//article", "/article//year"}},
	}
	h := sha256.New()
	for _, corpus := range corpora {
		ix, err := flix.Build(corpus.coll, flix.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, onto := range []*ontology.Ontology{nil, corpus.onto} {
			for _, inverse := range []float64{0, 0.5} {
				fmt.Fprintf(h, "%s ontology=%v inverse=%g\n", corpus.name, onto != nil, inverse)
				hashRanked(t, h, &Evaluator{Index: ix, Ontology: onto, InverseScore: inverse}, corpus.exprs)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != recorded {
		t.Errorf("ranked answers hash %s, recorded %s", got, recorded)
	}
}
