package xmlparse

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xmlgraph"
)

const movieDoc = `<movie id="m1">
  <title>Matrix: Revolutions</title>
  <cast>
    <actor idref="a1"/>
  </cast>
  <actor id="a1"><name>Keanu Reeves</name></actor>
</movie>`

const reviewDoc = `<review>
  <about href="movies.xml#m1"/>
  <text>great</text>
  <seealso xmlns:xlink="http://www.w3.org/1999/xlink" xlink:href="movies.xml"/>
</review>`

func load(t *testing.T, docs map[string]string) *xmlgraph.Collection {
	t.Helper()
	c, err := Parse(docs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParseSingleDocument(t *testing.T) {
	c := load(t, map[string]string{"movies.xml": movieDoc})
	if c.NumDocs() != 1 {
		t.Fatalf("NumDocs = %d", c.NumDocs())
	}
	if c.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", c.NumNodes())
	}
	// idref produces one intra-document link actor-ref -> actor.
	if c.NumLinks() != 1 {
		t.Fatalf("NumLinks = %d, want 1", c.NumLinks())
	}
	l := c.Links()[0]
	if l.Kind != xmlgraph.EdgeIntraLink {
		t.Errorf("link kind = %v, want intra", l.Kind)
	}
	if c.Tag(l.From) != "actor" || c.Tag(l.To) != "actor" {
		t.Errorf("link endpoints: %s -> %s", c.Tag(l.From), c.Tag(l.To))
	}
	if n := c.FindByXMLID(c.DocOf(l.To), "a1"); n != l.To {
		t.Errorf("link target = %d, the element with xml id a1 = %d", l.To, n)
	}
}

func TestParseInterDocumentLinks(t *testing.T) {
	c := load(t, map[string]string{"movies.xml": movieDoc, "review.xml": reviewDoc})
	if c.NumDocs() != 2 {
		t.Fatalf("NumDocs = %d", c.NumDocs())
	}
	var inter []xmlgraph.Link
	for _, l := range c.Links() {
		if l.Kind == xmlgraph.EdgeInterLink {
			inter = append(inter, l)
		}
	}
	if len(inter) != 2 {
		t.Fatalf("inter links = %d, want 2", len(inter))
	}
	// Both links resolve to the movie root: the fragment link because the
	// root carries id="m1", the bare href because it targets the document
	// root by definition.
	movies, _ := c.DocByName("movies.xml")
	root := c.Doc(movies).Root
	for _, l := range inter {
		if l.To != root {
			t.Errorf("inter link to %v (%s), want movie root %v", l.To, c.Tag(l.To), root)
		}
		if c.Tag(l.From) != "about" && c.Tag(l.From) != "seealso" {
			t.Errorf("unexpected link source %s", c.Tag(l.From))
		}
	}
}

func TestParseText(t *testing.T) {
	c := load(t, map[string]string{"movies.xml": movieDoc})
	titles := c.NodesByTag("title")
	if len(titles) != 1 || c.Text(titles[0]) != "Matrix: Revolutions" {
		t.Errorf("title text = %v", titles)
	}
}

func TestParseIdrefs(t *testing.T) {
	doc := `<r><x idrefs="a b"/><p id="a"/><p id="b"/></r>`
	c := load(t, map[string]string{"d.xml": doc})
	if c.NumLinks() != 2 {
		t.Fatalf("NumLinks = %d, want 2", c.NumLinks())
	}
}

// unresolved holds documents with one reference each that names no element.
var unresolved = []struct{ name, doc string }{
	{"unknown-id", `<r><x idref="nope"/></r>`},
	{"unknown-doc", `<r><x href="missing.xml"/></r>`},
	{"empty-idref", `<r><a idref=""/></r>`},
}

func TestUnresolvedNonStrict(t *testing.T) {
	for _, tc := range unresolved {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLoader()
			if err := l.LoadDocument("d.xml", strings.NewReader(tc.doc)); err != nil {
				t.Fatal(err)
			}
			c, err := l.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if c.NumLinks() != 0 {
				t.Errorf("dangling ref created links %v", c.Links())
			}
			if len(l.Errs()) != 1 {
				t.Errorf("Errs = %v, want 1 entry", l.Errs())
			}
		})
	}
}

func TestUnresolvedStrict(t *testing.T) {
	for _, tc := range unresolved {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLoader()
			l.Strict = true
			if err := l.LoadDocument("d.xml", strings.NewReader(tc.doc)); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Finish(); err == nil {
				t.Error("strict mode must report unresolved links")
			}
		})
	}
}

func TestMalformedXML(t *testing.T) {
	l := NewLoader()
	if err := l.LoadDocument("bad.xml", strings.NewReader(`<a><b></a>`)); err == nil {
		t.Error("malformed XML accepted")
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "movies.xml"), []byte(movieDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "review.xml"), []byte(reviewDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ignore.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := NewLoader()
	if err := l.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	c, err := l.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDocs() != 2 {
		t.Errorf("NumDocs = %d, want 2 (txt file must be ignored)", c.NumDocs())
	}
}

func TestSplitHref(t *testing.T) {
	cases := []struct{ in, doc, frag string }{
		{"a.xml#f", "a.xml", "f"},
		{"a.xml", "a.xml", ""},
		{"#f", "", "f"},
		{"", "", ""},
	}
	for _, tc := range cases {
		d, f := splitHref(tc.in)
		if d != tc.doc || f != tc.frag {
			t.Errorf("splitHref(%q) = (%q, %q), want (%q, %q)", tc.in, d, f, tc.doc, tc.frag)
		}
	}
}

func TestWhitespaceIgnored(t *testing.T) {
	c := load(t, map[string]string{"d.xml": "<a>\n  <b>text</b>\n</a>"})
	roots := c.NodesByTag("a")
	if c.Text(roots[0]) != "" {
		t.Errorf("whitespace kept: %q", c.Text(roots[0]))
	}
	bs := c.NodesByTag("b")
	if c.Text(bs[0]) != "text" {
		t.Errorf("text lost: %q", c.Text(bs[0]))
	}
}
