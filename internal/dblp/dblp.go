// Package dblp generates a synthetic DBLP-like XML document collection.
//
// The paper's experiments (§6) use an extract of the real DBLP collection:
// one XML document per 2nd-level element (article, inproceedings, ...) for
// publications in EDBT, ICDE, SIGMOD and VLDB plus articles in TODS and the
// VLDB Journal — 6,210 documents with 168,991 elements and 25,368
// inter-document links.  That exact extract is not redistributable, so this
// generator produces a deterministic synthetic collection with the same
// element vocabulary, matched document count, per-document element counts
// (≈27 elements per document on average) and citation-link distribution
// (≈4.1 links per document with preferential attachment, so that a few
// heavily cited "hub" papers exist — the role Mohan's VLDB'99 ARIES paper
// plays in the paper's query experiment).
//
// `dblp.Generate` over `dblp.Scaled`(6210) is that paper-scale corpus —
// 171 001 elements, 25 373 links — which the paper-scale tests, the
// experiments and the benchmark build; smaller scales keep the same
// distributions.
package dblp

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/xmlgraph"
)

// Venue describes one publication venue of the extract.
type Venue struct {
	Name    string
	Kind    string // "inproceedings" or "article"
	Journal string // journal/booktitle element content
}

// Venues mirrors the venues of the paper's extract.
var Venues = []Venue{
	{Name: "EDBT", Kind: "inproceedings", Journal: "EDBT"},
	{Name: "ICDE", Kind: "inproceedings", Journal: "ICDE"},
	{Name: "SIGMOD", Kind: "inproceedings", Journal: "SIGMOD Conference"},
	{Name: "VLDB", Kind: "inproceedings", Journal: "VLDB"},
	{Name: "TODS", Kind: "article", Journal: "ACM Trans. Database Syst."},
	{Name: "VLDBJ", Kind: "article", Journal: "VLDB J."},
}

// Params tunes the generator.  The zero value is not useful; start from
// DefaultParams.
type Params struct {
	// Docs is the number of publication documents (paper: 6,210).
	Docs int
	// MeanCites is the average number of citation links per document
	// (paper: 25,368 / 6,210 ≈ 4.1).
	MeanCites float64
	// MeanExtra is the average number of optional metadata elements per
	// document, calibrated so the mean document size matches the paper's
	// 168,991 / 6,210 ≈ 27.2 elements.
	MeanExtra float64
	// Seed makes the collection reproducible.
	Seed int64
}

// DefaultParams matches the paper's collection scale.
func DefaultParams() Params {
	return Params{Docs: 6210, MeanCites: 4.085, MeanExtra: 15.9, Seed: 42}
}

// Scaled returns DefaultParams shrunk to the given document count, keeping
// the per-document distributions; useful for fast tests and examples.
func Scaled(docs int) Params {
	p := DefaultParams()
	p.Docs = docs
	return p
}

// Publication is the intermediate representation shared by the collection
// builder and the XML writer.
type Publication struct {
	Key     string // e.g. "conf/vldb/Author99"
	Venue   Venue
	Year    int
	Title   string
	Authors []string
	Pages   string
	Extras  [][2]string // optional (tag, text) metadata elements
	Cites   []int       // indexes of cited publications
}

// Collection is a generated corpus.
type Collection struct {
	Pubs []Publication
	// HubIndex is the query-start publication — the stand-in for the
	// paper's "Mohan's VLDB'99 paper about ARIES": a late, citation-rich
	// paper whose transitive citation descendants span many documents
	// (citations point backward in publication order, so late papers have
	// the large descendant sets).
	HubIndex int
	// MostCitedIndex is the publication with the highest in-degree.
	MostCitedIndex int
}

var extraTags = []string{"ee", "url", "crossref", "month", "note", "volume", "number", "cdrom", "isbn", "publisher"}

var firstNames = []string{
	"Alice", "Bob", "Carlos", "Dana", "Erik", "Fatima", "Guo", "Hanna",
	"Igor", "Jun", "Karin", "Luis", "Mei", "Nils", "Olga", "Priya",
	"Quentin", "Rosa", "Stefan", "Tomoko", "Uwe", "Vera", "Wen", "Xenia",
	"Yusuf", "Zoe",
}

var lastNames = []string{
	"Mohan", "Schenkel", "Grust", "Cohen", "Widom", "Goldman", "Chung",
	"Theobald", "Weikum", "Kaushik", "Fagin", "Ley", "Sayed", "Unland",
	"Shasha", "Zhang", "Cooper", "Halevy", "Franklin", "Apers", "Jensen",
	"Suciu", "Vossen", "Eppstein",
}

var titleWords = []string{
	"adaptive", "indexing", "XML", "queries", "efficient", "scalable",
	"path", "connection", "distributed", "semistructured", "recovery",
	"transactions", "optimization", "streams", "views", "joins",
	"aggregation", "caching", "replication", "mining",
}

// Generate builds the synthetic corpus.
func Generate(p Params) *Collection {
	if p.Docs <= 0 {
		panic("dblp: Params.Docs must be positive")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	c := &Collection{Pubs: make([]Publication, p.Docs)}
	for i := range c.Pubs {
		c.Pubs[i] = genPub(rng, i, p)
	}
	// Citations with preferential attachment: papers cite earlier papers;
	// the target is chosen from earlier papers weighted by citations
	// received so far (plus one).  This yields a heavy-tailed in-degree
	// distribution like real citation graphs.
	inDeg := make([]int, p.Docs)
	totalWeight := 0 // sum of inDeg over earlier papers, maintained incrementally
	for i := 1; i < p.Docs; i++ {
		want := poisson(rng, p.MeanCites)
		if want > i {
			want = i
		}
		seen := make(map[int]bool, want)
		for n := 0; n < want; n++ {
			// Half the citations attach preferentially (heavy-tailed
			// in-degree, like real citation graphs); the other half are
			// uniform over earlier papers, which keeps the transitive
			// citation closure of late papers large — the property the
			// descendants experiment depends on.
			var t int
			if rng.Intn(2) == 0 {
				t = rng.Intn(i)
			} else {
				t = pickTarget(rng, inDeg, i, totalWeight+i)
			}
			if seen[t] {
				continue
			}
			seen[t] = true
			inDeg[t]++
			totalWeight++
		}
		cites := make([]int, 0, len(seen))
		for t := range seen {
			cites = append(cites, t)
		}
		// Deterministic order for reproducible XML output.
		sortInts(cites)
		c.Pubs[i].Cites = cites
	}
	for i, d := range inDeg {
		if d > inDeg[c.MostCitedIndex] {
			c.MostCitedIndex = i
		}
	}
	// Query start: the citation-richest paper among the latest decile.
	c.HubIndex = p.Docs - 1
	for i := p.Docs - p.Docs/10 - 1; i < p.Docs; i++ {
		if i >= 0 && len(c.Pubs[i].Cites) > len(c.Pubs[c.HubIndex].Cites) {
			c.HubIndex = i
		}
	}
	return c
}

// pickTarget samples an earlier paper index weighted by inDeg+1.
func pickTarget(rng *rand.Rand, inDeg []int, limit, totalWeight int) int {
	r := rng.Intn(totalWeight)
	for t := 0; t < limit; t++ {
		r -= inDeg[t] + 1
		if r < 0 {
			return t
		}
	}
	return limit - 1
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// poisson samples a Poisson variate by Knuth's inversion (fine for the
// small means used here).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

func genPub(rng *rand.Rand, i int, p Params) Publication {
	v := Venues[rng.Intn(len(Venues))]
	year := 1988 + rng.Intn(16) // 1988..2003, matching the extract era
	author := lastNames[rng.Intn(len(lastNames))]
	pub := Publication{
		Key:   fmt.Sprintf("%s/%s/%s%02d-%d", kindPrefix(v), v.Name, author, year%100, i),
		Venue: v,
		Year:  year,
		Title: genTitle(rng),
		Pages: fmt.Sprintf("%d-%d", 1+rng.Intn(500), 10+rng.Intn(500)+500),
	}
	nAuthors := 1 + rng.Intn(4)
	for a := 0; a < nAuthors; a++ {
		pub.Authors = append(pub.Authors,
			firstNames[rng.Intn(len(firstNames))]+" "+lastNames[rng.Intn(len(lastNames))])
	}
	nExtras := poisson(rng, p.MeanExtra)
	for x := 0; x < nExtras; x++ {
		tag := extraTags[rng.Intn(len(extraTags))]
		pub.Extras = append(pub.Extras, [2]string{tag, fmt.Sprintf("%s-%d", tag, rng.Intn(1000))})
	}
	return pub
}

func kindPrefix(v Venue) string {
	if v.Kind == "article" {
		return "journals"
	}
	return "conf"
}

func genTitle(rng *rand.Rand) string {
	n := 3 + rng.Intn(5)
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += " "
		}
		s += titleWords[rng.Intn(len(titleWords))]
	}
	return s
}

// DocName returns the document (file) name of publication i.
func (c *Collection) DocName(i int) string {
	return fmt.Sprintf("pub%06d.xml", i)
}

// BuildGraph materializes the corpus as an xmlgraph collection.  Each
// publication becomes one document shaped like DBLP records:
//
//	<article key="...">
//	  <author>...</author>+ <title>...</title> <year>...</year>
//	  <journal>|<booktitle>...</booktitle> <pages>...</pages>
//	  extras* <cite>...</cite>*
//	</article>
//
// Citation links run from each <cite> element to the cited document's root
// (inter-document links), exactly how the paper's extract links documents.
func (c *Collection) BuildGraph() *xmlgraph.Collection {
	coll := xmlgraph.NewCollection()
	c.AppendTo(coll)
	coll.Freeze()
	return coll
}

// AppendTo adds the corpus's documents and citation links to an existing,
// unfrozen collection — the building block for mixed collections combining
// a DBLP region with other document shapes.
func (c *Collection) AppendTo(coll *xmlgraph.Collection) {
	roots := make([]xmlgraph.NodeID, len(c.Pubs))
	type pendingCite struct {
		from   xmlgraph.NodeID
		target int
	}
	var pending []pendingCite
	for i := range c.Pubs {
		pub := &c.Pubs[i]
		b := coll.NewDocument(c.DocName(i))
		roots[i] = b.Enter(pub.Venue.Kind, "")
		for _, a := range pub.Authors {
			b.AddLeaf("author", a)
		}
		b.AddLeaf("title", pub.Title)
		b.AddLeaf("year", fmt.Sprintf("%d", pub.Year))
		if pub.Venue.Kind == "article" {
			b.AddLeaf("journal", pub.Venue.Journal)
		} else {
			b.AddLeaf("booktitle", pub.Venue.Journal)
		}
		b.AddLeaf("pages", pub.Pages)
		for _, ex := range pub.Extras {
			b.AddLeaf(ex[0], ex[1])
		}
		for _, t := range pub.Cites {
			cite := b.AddLeaf("cite", c.Pubs[t].Key)
			pending = append(pending, pendingCite{from: cite, target: t})
		}
		b.Leave()
		b.Close()
	}
	for _, pc := range pending {
		coll.AddLink(pc.from, roots[pc.target], xmlgraph.EdgeInterLink)
	}
}

// Hub returns the root element of the most-cited publication in a graph
// built by BuildGraph.
func (c *Collection) Hub(coll *xmlgraph.Collection) xmlgraph.NodeID {
	d, ok := coll.DocByName(c.DocName(c.HubIndex))
	if !ok {
		panic("dblp: hub document missing")
	}
	return coll.Doc(d).Root
}

// WriteXML renders every publication as an XML file in dir, with citation
// links as href attributes — the on-disk form consumed by xmlparse.LoadDir
// and the dblpgen command.
func (c *Collection) WriteXML(dir string) error {
	for i := range c.Pubs {
		f, err := os.Create(filepath.Join(dir, c.DocName(i)))
		if err != nil {
			return err
		}
		if err := c.writePub(f, i); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func (c *Collection) writePub(w io.Writer, i int) error {
	pub := &c.Pubs[i]
	if _, err := fmt.Fprintf(w, "<%s key=%q>\n", pub.Venue.Kind, pub.Key); err != nil {
		return err
	}
	leaf := func(tag, text string) error {
		_, err := fmt.Fprintf(w, "  <%s>%s</%s>\n", tag, xmlEscape(text), tag)
		return err
	}
	for _, a := range pub.Authors {
		if err := leaf("author", a); err != nil {
			return err
		}
	}
	if err := leaf("title", pub.Title); err != nil {
		return err
	}
	if err := leaf("year", fmt.Sprintf("%d", pub.Year)); err != nil {
		return err
	}
	venueTag := "booktitle"
	if pub.Venue.Kind == "article" {
		venueTag = "journal"
	}
	if err := leaf(venueTag, pub.Venue.Journal); err != nil {
		return err
	}
	if err := leaf("pages", pub.Pages); err != nil {
		return err
	}
	for _, ex := range pub.Extras {
		if err := leaf(ex[0], ex[1]); err != nil {
			return err
		}
	}
	for _, t := range pub.Cites {
		if _, err := fmt.Fprintf(w, "  <cite href=%q>%s</cite>\n",
			c.DocName(t), xmlEscape(c.Pubs[t].Key)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "</%s>\n", pub.Venue.Kind)
	return err
}

func xmlEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			out = append(out, "&amp;"...)
		case '<':
			out = append(out, "&lt;"...)
		case '>':
			out = append(out, "&gt;"...)
		case '"':
			out = append(out, "&quot;"...)
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}
