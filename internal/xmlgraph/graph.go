// Package xmlgraph implements the XML data model of FliX (EDBT 2004, §2.1).
//
// Each XML document d is represented as a graph G_d = (V_d, E_d) whose
// vertices are the elements of d (plus referenced external elements) and
// whose edges are the parent-child relationships together with links from
// elements of d to other elements (intra-document id/idref links and
// inter-document XLink-style links).  A collection X = {d_1, ..., d_n} is the
// union G_X of the per-document graphs.
//
// The package also provides exact breadth-first-search oracles used both by
// the index builders (transitive closure of small partitions) and by the test
// suite as ground truth for every index structure.
//
// # Layout
//
// A Collection keeps its elements as int32 columns indexed by NodeID, with
// no pointer in them: tag ID, text ID, document, parent and next sibling,
// plus the link rows out and in and, after Freeze, the elements per tag
// (csr.Rows).  Elements are numbered depth first, so n's first child, if it
// has one, is n+1 and no first-child column is needed.  Tag names are
// interned when an element is entered (TagNames in order of first
// appearance, `xmlgraph.Collection.TagID`), and texts when it is left, so
// text around children is one text; the text → ID map lives only while
// documents are built.  xml:ids are a sparse map, nil until the first one
// is set.  On the 6210-document corpus that is 46 B per element, links,
// rows and dictionaries included (`TestCollectionHeapBudget`, budget
// 10 MiB), and every accessor is held to a record the test keeps beside
// the builder (`TestBuilderColumns`).
//
// Two things are derived on demand and never persisted.  UpdateDerived
// holds one opaque value behind a mutex — package flix keeps the
// meta-document decomposition there.  `xmlgraph.Collection.TextDict` builds,
// on a frozen collection's first predicate query naming a tag, that tag's
// inverted text dictionary, so the dictionaries a client can make the
// server build are bounded by the collection's own text
// (`TestTextDictLazyAndBounded`).
package xmlgraph

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/csr"
)

// NodeID identifies an element in a Collection.  IDs are dense: a collection
// with n elements uses IDs 0..n-1 in document order (documents concatenated
// in insertion order, elements in depth-first order within a document).
type NodeID int32

// InvalidNode is returned by lookups that find no element.
const InvalidNode NodeID = -1

// DocID identifies a document in a Collection.  IDs are dense in insertion
// order.
type DocID int32

// InvalidDoc is the DocID of no document.
const InvalidDoc DocID = -1

// EdgeKind distinguishes the kinds of edges of the XML data graph.
type EdgeKind uint8

const (
	// EdgeChild is a parent-child edge within a document tree.
	EdgeChild EdgeKind = iota
	// EdgeIntraLink is an intra-document link (e.g. idref -> id).
	EdgeIntraLink
	// EdgeInterLink is an inter-document link (e.g. xlink:href).
	EdgeInterLink
)

// String returns a short human-readable name of the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeChild:
		return "child"
	case EdgeIntraLink:
		return "intra-link"
	case EdgeInterLink:
		return "inter-link"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// Link is a non-tree edge of the data graph.
type Link struct {
	From NodeID
	To   NodeID
	Kind EdgeKind
}

// Document is one XML document of a collection.
type Document struct {
	// Name is the document identifier (usually its file name or a
	// generator-assigned name).  Unique within a collection.
	Name string
	// Root is the document's root element.
	Root NodeID
	// first and last delimit the half-open NodeID range [first, last) of
	// the document's elements; elements of one document are contiguous.
	first, last NodeID
}

// Size returns the number of elements of the document.
func (d *Document) Size() int { return int(d.last - d.first) }

// Nodes returns the half-open NodeID range [first, last) of the document.
func (d *Document) Nodes() (first, last NodeID) { return d.first, d.last }

// Collection is a set of interlinked XML documents, i.e. the graph G_X.
// A Collection is immutable after Freeze and safe for concurrent reads.
type Collection struct {
	// The elements are columns with one entry per element, indexed by
	// NodeID, and hold no pointer: tagIDs[n] indexes tagNames and
	// textIDs[n] texts; parent and nextSibling encode the tree,
	// InvalidNode where there is none.  Elements are numbered in
	// depth-first order, so an element's first child, if it has one, is
	// the element after it.
	tagIDs      []int32
	textIDs     []int32
	docOf       []DocID
	parent      []NodeID
	nextSibling []NodeID

	// tagNames holds each distinct element name once, IDs in order of first
	// appearance, and tagIndex maps a name to its ID: Enter interns, so
	// consumers flattening the collection (meta.Build) work on small
	// integers and nothing hashes every element's name again.
	tagNames []string
	tagIndex map[string]int32
	// texts holds each distinct element text once, texts[0] the empty one.
	// textIndex maps a text to its ID while documents are built; Freeze
	// drops it.
	texts     []string
	textIndex map[string]int32
	// xmlIDs holds the xml:id of the elements that have one; nil while
	// none does.
	xmlIDs map[NodeID]string

	docs  []Document
	links []Link

	// Row n of outLinks lists the links leaving node n (indexes into
	// links), row n of inLinks those entering it.  Built by Freeze.
	outLinks  csr.Rows[int32]
	inLinks   csr.Rows[int32]
	frozen    bool
	docByName map[string]DocID

	// Row id of byTag lists the elements named tagNames[id], ascending.
	// Built by Freeze so queries against a frozen collection answer tag
	// lookups without scanning all nodes.
	byTag csr.Rows[NodeID]

	// textDicts holds the text dictionaries built so far (tag → *TextDict);
	// textBuild serialises building them.  See TextDict.
	textDicts sync.Map
	textBuild sync.Mutex

	// derived is the value UpdateDerived keeps, guarded by derivedMu.
	derivedMu sync.Mutex
	derived   any
}

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	return &Collection{
		docByName: make(map[string]DocID),
		tagIndex:  make(map[string]int32),
		texts:     []string{""},
		textIndex: map[string]int32{"": 0},
	}
}

// NumNodes returns the number of elements in the collection.
func (c *Collection) NumNodes() int { return len(c.tagIDs) }

// NumDocs returns the number of documents in the collection.
func (c *Collection) NumDocs() int { return len(c.docs) }

// NumLinks returns the number of link (non-tree) edges.
func (c *Collection) NumLinks() int { return len(c.links) }

// NumEdges returns the total number of edges (tree + link).
func (c *Collection) NumEdges() int {
	// Every node except each document root has exactly one incoming tree
	// edge.
	return c.NumNodes() - len(c.docs) + len(c.links)
}

// Valid reports whether id is a node of this collection.
func (c *Collection) Valid(id NodeID) bool {
	return id >= 0 && int(id) < c.NumNodes()
}

// Doc returns the document with the given ID.
func (c *Collection) Doc(id DocID) *Document {
	return &c.docs[id]
}

// DocByName returns the document with the given name.
func (c *Collection) DocByName(name string) (DocID, bool) {
	id, ok := c.docByName[name]
	return id, ok
}

// Links returns all link edges of the collection.  Callers must not mutate
// the returned slice.
func (c *Collection) Links() []Link { return c.links }

// Tag returns the element name of node id (e.g. "article", "author").
func (c *Collection) Tag(id NodeID) string { return c.tagNames[c.tagIDs[id]] }

// TagID returns the dictionary ID of node id's element name: an index into
// TagNames.
func (c *Collection) TagID(id NodeID) int32 { return c.tagIDs[id] }

// TagNames returns the distinct element names in order of first appearance.
// Callers must not mutate the returned slice.
func (c *Collection) TagNames() []string { return c.tagNames }

// Text returns the character data directly below node id, concatenated
// around its children, once the element has been left.  The path indexes
// ignore it; content predicates read it, through the collection's per-tag
// text dictionary (TextDict) where they can.
func (c *Collection) Text(id NodeID) string { return c.texts[c.textIDs[id]] }

// TextID returns the dictionary ID of node id's text: an index into Texts.
// Elements with equal texts share one ID, and ID 0 is the empty text.
func (c *Collection) TextID(id NodeID) int32 { return c.textIDs[id] }

// Texts returns the distinct element texts, the empty one first.  Callers
// must not mutate the returned slice.
func (c *Collection) Texts() []string { return c.texts }

// Parent returns the parent of id, or InvalidNode for document roots.
func (c *Collection) Parent(id NodeID) NodeID { return c.parent[id] }

// firstChild returns the first child of id, or InvalidNode for a leaf.
func (c *Collection) firstChild(id NodeID) NodeID {
	if ch := id + 1; int(ch) < c.NumNodes() && c.parent[ch] == id {
		return ch
	}
	return InvalidNode
}

// EachChild calls fn for every child of id in document order.
func (c *Collection) EachChild(id NodeID, fn func(NodeID)) {
	for ch := c.firstChild(id); ch != InvalidNode; ch = c.nextSibling[ch] {
		fn(ch)
	}
}

// OutLinks calls fn for every link edge leaving id.
func (c *Collection) OutLinks(id NodeID, fn func(Link)) {
	if !c.frozen {
		for _, l := range c.links {
			if l.From == id {
				fn(l)
			}
		}
		return
	}
	for _, li := range c.outLinks.Row(int32(id)) {
		fn(c.links[li])
	}
}

// InLinks calls fn for every link edge entering id.
func (c *Collection) InLinks(id NodeID, fn func(Link)) {
	if !c.frozen {
		for _, l := range c.links {
			if l.To == id {
				fn(l)
			}
		}
		return
	}
	for _, li := range c.inLinks.Row(int32(id)) {
		fn(c.links[li])
	}
}

// EachSuccessor calls fn for every direct successor of id in G_X: the
// element's children followed by its outgoing link targets.
func (c *Collection) EachSuccessor(id NodeID, fn func(NodeID)) {
	c.EachChild(id, fn)
	c.OutLinks(id, func(l Link) { fn(l.To) })
}

// EachPredecessor calls fn for every direct predecessor of id in G_X: the
// element's parent (if any) followed by the sources of incoming links.
func (c *Collection) EachPredecessor(id NodeID, fn func(NodeID)) {
	if p := c.parent[id]; p != InvalidNode {
		fn(p)
	}
	c.InLinks(id, func(l Link) { fn(l.From) })
}

// AddLink records a link edge.  Panics if either endpoint is unknown or the
// collection is frozen.
func (c *Collection) AddLink(from, to NodeID, kind EdgeKind) {
	if c.frozen {
		panic("xmlgraph: AddLink on frozen collection")
	}
	if !c.Valid(from) || !c.Valid(to) {
		panic(fmt.Sprintf("xmlgraph: AddLink(%d, %d): unknown node", from, to))
	}
	c.links = append(c.links, Link{From: from, To: to, Kind: kind})
}

// Freeze finalizes the collection: it builds the per-node link adjacency
// and the per-tag node lists, drops the build-time text index and marks the
// collection immutable.  Freeze is idempotent.
func (c *Collection) Freeze() {
	if c.frozen {
		return
	}
	n := c.NumNodes()
	c.outLinks = csr.Group(n, func(add func(int32, int32)) {
		for i, l := range c.links {
			add(int32(l.From), int32(i))
		}
	})
	c.inLinks = csr.Group(n, func(add func(int32, int32)) {
		for i, l := range c.links {
			add(int32(l.To), int32(i))
		}
	})
	c.byTag = csr.Group(len(c.tagNames), func(add func(int32, NodeID)) {
		for i, id := range c.tagIDs {
			add(id, NodeID(i))
		}
	})
	c.textIndex = nil
	c.frozen = true
}

// UpdateDerived gives a consumer of a frozen collection one place to keep a
// value it derived from the collection and wants to live exactly as long:
// fn runs with the slot locked, receives what the slot holds (nil at first)
// and returns what it shall hold from now on.  Callers arriving while fn
// runs wait for it, so a value computed inside fn is computed once and shared
// by those that wait.  The collection neither reads nor interprets the value
// — flix.Decompose keeps the meta-document decomposition here — and there is
// one slot, not a table: a consumer that stores replaces what was there.
func (c *Collection) UpdateDerived(fn func(cur any) any) {
	c.derivedMu.Lock()
	defer c.derivedMu.Unlock()
	c.derived = fn(c.derived)
}

// TagIDOf returns the dictionary ID of an element name — the value TagID
// reports for the elements carrying it — or -1 when no element does.
func (c *Collection) TagIDOf(tag string) int32 {
	if id, ok := c.tagIndex[tag]; ok {
		return id
	}
	return -1
}

// Frozen reports whether Freeze has been called.
func (c *Collection) Frozen() bool { return c.frozen }

// DocOf returns the document containing node id.
func (c *Collection) DocOf(id NodeID) DocID { return c.docOf[id] }

// NodesByTag returns all node IDs with the given tag, in ascending order.
// On a frozen collection the result is the cached lookup slice — callers
// must not modify it.
func (c *Collection) NodesByTag(tag string) []NodeID {
	id := c.TagIDOf(tag)
	if id < 0 {
		return nil
	}
	if c.frozen {
		return c.byTag.Row(id)
	}
	var out []NodeID
	for n, t := range c.tagIDs {
		if t == id {
			out = append(out, NodeID(n))
		}
	}
	return out
}

// Tags returns the set of distinct element names in the collection, sorted.
func (c *Collection) Tags() []string {
	out := slices.Clone(c.tagNames)
	slices.Sort(out)
	return out
}

// FindByXMLID returns the first node of document doc in document order
// whose xml:id attribute equals id, or InvalidNode.  An empty id names no
// element.
func (c *Collection) FindByXMLID(doc DocID, id string) NodeID {
	if id == "" || c.xmlIDs == nil {
		return InvalidNode
	}
	d := &c.docs[doc]
	for n := d.first; n < d.last; n++ {
		if c.xmlIDs[n] == id {
			return n
		}
	}
	return InvalidNode
}

// Depth returns the number of tree edges between id and its document root.
func (c *Collection) Depth(id NodeID) int {
	d := 0
	for n := c.parent[id]; n != InvalidNode; n = c.parent[n] {
		d++
	}
	return d
}
