// Package xmlparse loads real XML text into the xmlgraph data model.
//
// It recognizes the two kinds of links of the paper's data model (§1.1,
// §2.1):
//
//   - intra-document links through attributes of type id / idref
//     (recognized by the conventional attribute names "id"/"xml:id" and
//     "idref"/"idrefs"), and
//   - inter-document links through XLink-style attributes
//     ("xlink:href" or plain "href") of the form "docname" or
//     "docname#fragment"; a bare "#fragment" is an intra-document link.
//
// Loading is two-phase: documents are parsed first (collecting unresolved
// references), then all references are resolved against the complete
// collection, so forward references and links to later documents work.
package xmlparse

import (
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/xmlgraph"
)

// pendingRef is an unresolved link discovered during parsing.
type pendingRef struct {
	from xmlgraph.NodeID
	doc  string // target document name; empty = same document
	frag string // target fragment (xml:id); empty = document root
	self string // name of the document containing from
}

// Loader accumulates documents and resolves links at the end.
//
// A LoadDocument/LoadFile error leaves the partially parsed document in the
// underlying collection, so the loader marks itself broken and Finish
// refuses to produce a collection afterwards; start a fresh Loader instead.
type Loader struct {
	coll    *xmlgraph.Collection
	pending []pendingRef
	// Strict makes unresolved references an error; otherwise they are
	// silently dropped (the Web never guarantees link targets exist).
	Strict bool
	errs   []error
	broken error
}

// NewLoader returns a Loader writing into a fresh collection.
func NewLoader() *Loader {
	return &Loader{coll: xmlgraph.NewCollection()}
}

// LoadDocument parses one XML document from r and adds it to the collection
// under the given name.  The name is what href attributes of other documents
// use to refer to it (conventionally the file name).
func (l *Loader) LoadDocument(name string, r io.Reader) error {
	if l.broken != nil {
		return fmt.Errorf("xmlparse: loader broken by earlier error: %w", l.broken)
	}
	if err := l.loadDocument(name, r); err != nil {
		l.broken = err
		return err
	}
	return nil
}

func (l *Loader) loadDocument(name string, r io.Reader) error {
	if _, dup := l.coll.DocByName(name); dup {
		return fmt.Errorf("xmlparse: duplicate document name %q", name)
	}
	b := l.coll.NewDocument(name)
	dec := xml.NewDecoder(r)
	depth := 0
	sawRoot := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("xmlparse: document %q: %w", name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if depth == 0 && sawRoot {
				return fmt.Errorf("xmlparse: document %q: multiple root elements", name)
			}
			sawRoot = true
			id := b.Enter(t.Name.Local, "")
			depth++
			for _, a := range t.Attr {
				l.handleAttr(name, b, id, a)
			}
		case xml.EndElement:
			b.Leave()
			depth--
		case xml.CharData:
			if depth > 0 {
				if s := strings.TrimSpace(string(t)); s != "" {
					b.AppendText(s)
				}
			}
		}
	}
	if depth != 0 {
		return fmt.Errorf("xmlparse: document %q: unbalanced elements", name)
	}
	if !sawRoot {
		return fmt.Errorf("xmlparse: document %q: no root element", name)
	}
	b.Close()
	return nil
}

func (l *Loader) handleAttr(docName string, b *xmlgraph.DocumentBuilder, id xmlgraph.NodeID, a xml.Attr) {
	key := a.Name.Local
	if a.Name.Space != "" {
		// Normalize namespaced attributes like xml:id and xlink:href to
		// their local names; the namespace URI spelling varies.
		switch {
		case strings.HasSuffix(a.Name.Space, "xml") && key == "id":
			key = "id"
		case strings.Contains(a.Name.Space, "xlink") && key == "href":
			key = "href"
		}
	}
	switch key {
	case "id":
		b.SetXMLID(a.Value)
	case "idref":
		l.pending = append(l.pending, pendingRef{from: id, frag: a.Value, self: docName})
	case "idrefs":
		for _, f := range strings.Fields(a.Value) {
			l.pending = append(l.pending, pendingRef{from: id, frag: f, self: docName})
		}
	case "href":
		doc, frag := splitHref(a.Value)
		if doc == "" && frag == "" {
			return
		}
		l.pending = append(l.pending, pendingRef{from: id, doc: doc, frag: frag, self: docName})
	}
}

// splitHref splits "doc#frag" into its parts.  "#frag" yields ("", frag);
// "doc" yields (doc, "").
func splitHref(href string) (doc, frag string) {
	if i := strings.IndexByte(href, '#'); i >= 0 {
		return href[:i], href[i+1:]
	}
	return href, ""
}

// LoadFile parses the XML file at path; the document name is the base name.
func (l *Loader) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return l.LoadDocument(filepath.Base(path), f)
}

// LoadDir parses every *.xml file in dir (sorted by name, for determinism).
func (l *Loader) LoadDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".xml") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if err := l.LoadFile(filepath.Join(dir, n)); err != nil {
			return err
		}
	}
	return nil
}

// Finish resolves all pending references, freezes and returns the
// collection.  With Strict set, any unresolved reference is an error;
// otherwise unresolved references are dropped and reported by Errs.
func (l *Loader) Finish() (*xmlgraph.Collection, error) {
	if l.broken != nil {
		return nil, fmt.Errorf("xmlparse: loader broken by earlier error: %w", l.broken)
	}
	for _, p := range l.pending {
		target, err := l.resolve(p)
		if err != nil {
			if l.Strict {
				return nil, err
			}
			l.errs = append(l.errs, err)
			continue
		}
		kind := xmlgraph.EdgeInterLink
		if p.doc == "" || p.doc == p.self {
			kind = xmlgraph.EdgeIntraLink
		}
		l.coll.AddLink(p.from, target, kind)
	}
	l.coll.Freeze()
	return l.coll, nil
}

func (l *Loader) resolve(p pendingRef) (xmlgraph.NodeID, error) {
	if p.doc == "" && p.frag == "" {
		// Only an empty idref names neither: href="" and href="#" add no
		// reference, and idrefs splits at whitespace.
		return xmlgraph.InvalidNode, fmt.Errorf("xmlparse: %s: empty idref", p.self)
	}
	docName := p.doc
	if docName == "" {
		docName = p.self
	}
	doc, ok := l.coll.DocByName(docName)
	if !ok {
		return xmlgraph.InvalidNode, fmt.Errorf("xmlparse: %s: link to unknown document %q", p.self, docName)
	}
	if p.frag == "" {
		return l.coll.Doc(doc).Root, nil
	}
	n := l.coll.FindByXMLID(doc, p.frag)
	if n == xmlgraph.InvalidNode {
		return xmlgraph.InvalidNode, fmt.Errorf("xmlparse: %s: link to unknown fragment %q in %q", p.self, p.frag, docName)
	}
	return n, nil
}

// Errs returns the references dropped in non-strict mode.
func (l *Loader) Errs() []error { return l.errs }

// Parse is a convenience that loads a set of named documents and finishes
// the collection.
func Parse(docs map[string]string) (*xmlgraph.Collection, error) {
	l := NewLoader()
	names := make([]string, 0, len(docs))
	for n := range docs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := l.LoadDocument(n, strings.NewReader(docs[n])); err != nil {
			return nil, err
		}
	}
	return l.Finish()
}
