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
package xmlgraph

import (
	"fmt"
	"sort"
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

// Node is one XML element.  The zero value is not a valid node; nodes are
// created through Collection.AddDocument / DocumentBuilder.
type Node struct {
	// Tag is the element name (e.g. "article", "author").
	Tag string
	// Text is the concatenated character data directly below the element.
	// The path indexes ignore it; content predicates read it, through the
	// collection's per-tag text dictionary (TextDict) where they can.
	Text string
	// Doc is the document the element belongs to.
	Doc DocID
	// Parent is the parent element, or InvalidNode for a document root.
	Parent NodeID
	// XMLID is the value of the element's xml:id (or DTD ID) attribute,
	// empty if none.  Unique within a document.
	XMLID string
	// firstChild/lastChild/nextSibling encode the tree structure without
	// per-node slices; children are iterated through Collection.Children.
	firstChild, lastChild, nextSibling NodeID
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
	nodes []Node
	docs  []Document
	links []Link

	// Row n of outLinks lists the links leaving node n (indexes into
	// links), row n of inLinks those entering it.  Built by Freeze.
	outLinks  csr.Rows[int32]
	inLinks   csr.Rows[int32]
	frozen    bool
	docByName map[string]DocID

	// byTag caches NodesByTag per tag.  Built by Freeze so queries against
	// a frozen collection answer tag lookups without scanning all nodes.
	byTag map[string][]NodeID
	// tagIDs[n] is the dictionary ID of node n's element name and
	// tagNames[id] the name, IDs in order of first appearance.  Built by
	// Freeze, so that consumers flattening the collection (meta.Build) work
	// on small integers instead of hashing every element's name again.
	tagIDs   []int32
	tagNames []string

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
	return &Collection{docByName: make(map[string]DocID)}
}

// NumNodes returns the number of elements in the collection.
func (c *Collection) NumNodes() int { return len(c.nodes) }

// NumDocs returns the number of documents in the collection.
func (c *Collection) NumDocs() int { return len(c.docs) }

// NumLinks returns the number of link (non-tree) edges.
func (c *Collection) NumLinks() int { return len(c.links) }

// NumEdges returns the total number of edges (tree + link).
func (c *Collection) NumEdges() int {
	// Every node except each document root has exactly one incoming tree
	// edge.
	return len(c.nodes) - len(c.docs) + len(c.links)
}

// Node returns the element with the given ID.  The returned pointer stays
// valid for the lifetime of the collection; callers must not mutate it after
// Freeze.
func (c *Collection) Node(id NodeID) *Node {
	return &c.nodes[id]
}

// Valid reports whether id is a node of this collection.
func (c *Collection) Valid(id NodeID) bool {
	return id >= 0 && int(id) < len(c.nodes)
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

// Tag returns the element name of node id.
func (c *Collection) Tag(id NodeID) string { return c.nodes[id].Tag }

// TagID returns the dictionary ID of node id's element name: an index into
// TagNames.  Only a frozen collection has the dictionary.
func (c *Collection) TagID(id NodeID) int32 { return c.tagIDs[id] }

// TagNames returns the distinct element names of a frozen collection in
// order of first appearance.  Callers must not mutate the returned slice.
func (c *Collection) TagNames() []string { return c.tagNames }

// Parent returns the parent of id, or InvalidNode for document roots.
func (c *Collection) Parent(id NodeID) NodeID { return c.nodes[id].Parent }

// Children appends the children of id to dst and returns it, in document
// order.
func (c *Collection) Children(id NodeID, dst []NodeID) []NodeID {
	for ch := c.nodes[id].firstChild; ch != InvalidNode; ch = c.nodes[ch].nextSibling {
		dst = append(dst, ch)
	}
	return dst
}

// EachChild calls fn for every child of id in document order.
func (c *Collection) EachChild(id NodeID, fn func(NodeID)) {
	for ch := c.nodes[id].firstChild; ch != InvalidNode; ch = c.nodes[ch].nextSibling {
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
	if p := c.nodes[id].Parent; p != InvalidNode {
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

// Freeze finalizes the collection: it builds the per-node link adjacency and
// marks the collection immutable.  Freeze is idempotent.
func (c *Collection) Freeze() {
	if c.frozen {
		return
	}
	c.outLinks = csr.Group(len(c.nodes), func(add func(int32, int32)) {
		for i, l := range c.links {
			add(int32(l.From), int32(i))
		}
	})
	c.inLinks = csr.Group(len(c.nodes), func(add func(int32, int32)) {
		for i, l := range c.links {
			add(int32(l.To), int32(i))
		}
	})
	ids := make(map[string]int32)
	c.tagIDs = make([]int32, len(c.nodes))
	var byID [][]NodeID
	for i := range c.nodes {
		tag := c.nodes[i].Tag
		id, ok := ids[tag]
		if !ok {
			id = int32(len(c.tagNames))
			ids[tag] = id
			c.tagNames = append(c.tagNames, tag)
			byID = append(byID, nil)
		}
		c.tagIDs[i] = id
		byID[id] = append(byID[id], NodeID(i))
	}
	c.byTag = make(map[string][]NodeID, len(byID))
	for id, tag := range c.tagNames {
		c.byTag[tag] = byID[id]
	}
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
// reports for the elements carrying it — or -1 when no element of the frozen
// collection does.
func (c *Collection) TagIDOf(tag string) int32 {
	if nodes := c.byTag[tag]; len(nodes) > 0 {
		return c.tagIDs[nodes[0]]
	}
	return -1
}

// Frozen reports whether Freeze has been called.
func (c *Collection) Frozen() bool { return c.frozen }

// DocOf returns the document containing node id.
func (c *Collection) DocOf(id NodeID) DocID { return c.nodes[id].Doc }

// NodesByTag returns all node IDs with the given tag, in ascending order.
// On a frozen collection the result is the cached lookup slice — callers
// must not modify it.
func (c *Collection) NodesByTag(tag string) []NodeID {
	if c.frozen {
		return c.byTag[tag]
	}
	var out []NodeID
	for i := range c.nodes {
		if c.nodes[i].Tag == tag {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Tags returns the set of distinct element names in the collection, sorted.
func (c *Collection) Tags() []string {
	seen := make(map[string]struct{})
	for i := range c.nodes {
		seen[c.nodes[i].Tag] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// FindByXMLID returns the node of document doc whose xml:id attribute equals
// id, or InvalidNode.
func (c *Collection) FindByXMLID(doc DocID, id string) NodeID {
	d := &c.docs[doc]
	for n := d.first; n < d.last; n++ {
		if c.nodes[n].XMLID == id {
			return n
		}
	}
	return InvalidNode
}

// Path returns the tag path from the document root to id, e.g.
// ["dblp", "article", "author"].
func (c *Collection) Path(id NodeID) []string {
	var rev []string
	for n := id; n != InvalidNode; n = c.nodes[n].Parent {
		rev = append(rev, c.nodes[n].Tag)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Depth returns the number of tree edges between id and its document root.
func (c *Collection) Depth(id NodeID) int {
	d := 0
	for n := c.nodes[id].Parent; n != InvalidNode; n = c.nodes[n].Parent {
		d++
	}
	return d
}
