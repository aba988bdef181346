package query

// The anchor dictionary's differential suite.  anchor answers [text~] and
// [text=] on a named tag from the collection's lazy text dictionary instead
// of scanning the tag's elements; ReferenceEvaluate keeps scanning on its own
// frozen predicate.  Matches, scores, order and Stats.Anchored of Evaluate
// and EvaluateTopK must equal the reference's for every needle shape the
// dictionary answers and every one it must leave to the scan.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dblp"
	"repro/internal/flix"
	"repro/internal/ontology"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// withTexts rebuilds a collection with text(n) as the text of element n;
// node IDs, document names and links are kept.
func withTexts(src *xmlgraph.Collection, text func(xmlgraph.NodeID) string) *xmlgraph.Collection {
	dst := xmlgraph.NewCollection()
	for d := 0; d < src.NumDocs(); d++ {
		doc := src.Doc(xmlgraph.DocID(d))
		b := dst.NewDocument(doc.Name)
		var walk func(n xmlgraph.NodeID)
		walk = func(n xmlgraph.NodeID) {
			b.Enter(src.Tag(n), text(n))
			src.EachChild(n, walk)
			b.Leave()
		}
		walk(doc.Root)
		b.Close()
	}
	for _, l := range src.Links() {
		dst.AddLink(l.From, l.To, l.Kind)
	}
	dst.Freeze()
	return dst
}

// dictTexts are the element texts of the family collections: plain words,
// mixed case, tokens repeated within one element, tab and newline
// separators, surrounding whitespace, no text at all, case folds outside
// ASCII (İ, ß, the Kelvin sign) and invalid UTF-8.
var dictTexts = []string{
	"adaptive indexing",
	"Adaptive XML Indexing",
	"xml\tXML\nxml  xml",
	"",
	"  reindexing\r\n",
	"index",
	"İstanbul straße",
	"STRASSE K 4",
	"caf\xe9 \xff\xfe",
	"xml",
	"XML",
	"adaptive\vindexing\fadaptive",
}

// dictNeedles: a whole token, an inner substring, a prefix, mixed case, with
// a space (two adjacent words), with a tab, empty, absent, a whole text, and
// the non-ASCII ones.
var dictNeedles = []string{
	"indexing", "dex", "ind", "InDeX", "xml", "XML", "adaptive indexing",
	"xml\txml", "", "absent", "Adaptive XML Indexing", "  reindexing\r\n",
	"İ", "i", "ß", "ss", "K", "k", "K", "\xe9", "\xff", "�", "4",
}

// checkAgainstReference holds Evaluate and EvaluateTopK (k = 1, 10, all) of
// one expression to the frozen scanning reference.
func checkAgainstReference(t *testing.T, label string, e *Evaluator, expr string) {
	t.Helper()
	q := mustParse(t, expr)
	full := e.ReferenceEvaluate(q)
	anchored := e.Stats.Anchored

	got := e.Evaluate(q)
	assertExactPrefix(t, label+" Evaluate "+expr, got, full, len(full))
	if e.Stats.Anchored != anchored {
		t.Fatalf("%s Evaluate %s: Anchored = %d, reference %d", label, expr, e.Stats.Anchored, anchored)
	}
	for _, k := range []int{1, 10, len(full) + 1} {
		got := e.EvaluateTopK(q, k)
		assertExactPrefix(t, fmt.Sprintf("%s EvaluateTopK %s k=%d", label, expr, k), got, full, k)
		if e.Stats.Anchored != anchored {
			t.Fatalf("%s EvaluateTopK %s k=%d: Anchored = %d, reference %d", label, expr, k, e.Stats.Anchored, anchored)
		}
	}
}

func quoted(op PredOp, needle string) string {
	if op == PredEq {
		return `[text="` + needle + `"]`
	}
	return `[text~"` + needle + `"]`
}

func TestAnchorDictMatchesScan(t *testing.T) {
	onto := ontology.New()
	for _, sim := range []struct {
		a, b  string
		score float64
	}{{"a", "b", 0.9}, {"a", "c", 0.7}, {"b", "d", 0.8}, {"title", "booktitle", 0.8}, {"title", "journal", 0.6}} {
		if err := onto.AddSimilarity(sim.a, sim.b, sim.score); err != nil {
			t.Fatal(err)
		}
	}

	for _, family := range testutil.Families() {
		rng := rand.New(rand.NewSource(5))
		coll := withTexts(testutil.Generate(family, 5, 8, 40, 16), func(xmlgraph.NodeID) string {
			return dictTexts[rng.Intn(len(dictTexts))]
		})
		ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 50})
		if err != nil {
			t.Fatal(err)
		}
		e := &Evaluator{Index: ix, Ontology: onto}
		for _, op := range []PredOp{PredContains, PredEq} {
			for _, needle := range dictNeedles {
				p := quoted(op, needle)
				for _, expr := range []string{
					"//a" + p,         // plain tag: the dictionary
					"//~a" + p,        // ontology expansion over a, b, c, d
					"//a" + p + "//b", // the anchor of a streamed query
					"//*" + p,         // wildcard: the scan
					"/a" + p,          // child-axis anchor: the scan
					"//c//b" + p,      // a later step: per-element test
				} {
					checkAgainstReference(t, string(family), e, expr)
				}
			}
		}
		if st := coll.TextDictStats(); len(st) != 4 {
			t.Errorf("%s: dictionaries %+v, want those of a, b, c, d: the anchors did not go through them", family, st)
		}
	}

	if testing.Short() {
		t.Skip("builds the 6210-document corpus")
	}
	pubs := dblp.Generate(dblp.Scaled(6210))
	coll := pubs.BuildGraph()
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 5000})
	if err != nil {
		t.Fatal(err)
	}
	e := &Evaluator{Index: ix, Ontology: onto}
	pub := pubs.Pubs[len(pubs.Pubs)/2]
	surname := pub.Authors[0][strings.IndexByte(pub.Authors[0], ' ')+1:]
	for _, op := range []PredOp{PredContains, PredEq} {
		for _, c := range []struct{ tag, needle string }{
			{"title", "indexing"}, {"title", "dex"}, {"title", "ind"}, {"title", "XmL"},
			{"title", "e i"}, {"title", ""}, {"title", "absent"}, {"title", pub.Title},
			{"title", "İ"}, {"title", "ß"}, {"title", "K"}, {"title", "\xff"},
			{"author", surname}, {"author", strings.ToUpper(surname)}, {"author", pub.Authors[0]},
			{"author", "a"}, {"cite", pub.Key}, {"cite", strings.ToLower(pub.Key)}, {"cite", "journals/"},
		} {
			checkAgainstReference(t, "dblp", e, "//"+c.tag+quoted(op, c.needle))
		}
		checkAgainstReference(t, "dblp", e, "//~title"+quoted(op, "xml"))
		checkAgainstReference(t, "dblp", e, "//~title"+quoted(op, pubs.Pubs[0].Venue.Journal))
	}
	// The benchmark's citation chase: a dictionary anchor under banded streams.
	checkAgainstReference(t, "dblp", e, `//cite[text="`+pub.Key+`"]//author`)
}

// BenchmarkAnchorPredicate times the three ranked shapes of the benchmark's
// mixed-warm workload as top-10 queries on the 6210-document corpus: a title
// word and an author surname ([text~], answered from the dictionary alone)
// and the citations of the most-cited publication, alone and as the anchor of
// a chase to their authors ([text=], dictionary candidates confirmed by the
// exact compare).
func BenchmarkAnchorPredicate(b *testing.B) {
	pubs := dblp.Generate(dblp.Scaled(6210))
	ix, err := flix.Build(pubs.BuildGraph(), flix.Config{Kind: flix.Hybrid, PartitionSize: 5000})
	if err != nil {
		b.Fatal(err)
	}
	e := &Evaluator{Index: ix}
	for _, c := range []struct{ name, expr string }{
		{"title-word", `//title[text~"indexing"]`},
		{"author-surname", `//author[text~"Suciu"]`},
		{"cite-key", `//cite[text="` + pubs.Pubs[pubs.HubIndex].Key + `"]`},
		{"cite-chase", `//cite[text="` + pubs.Pubs[pubs.HubIndex].Key + `"]//author`},
	} {
		q := mustParse(b, c.expr)
		b.Run(c.name, func(b *testing.B) {
			e.EvaluateTopK(q, 10) // the first use builds the tag's dictionary
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkMatches = e.EvaluateTopK(q, 10)
			}
		})
	}
}

var sinkMatches []Match
