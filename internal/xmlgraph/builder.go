package xmlgraph

import "fmt"

// DocumentBuilder constructs one document of a collection.  Elements are
// added in depth-first (document) order through Enter/Leave pairs, mirroring
// the event stream of an XML parser.
//
//	b := coll.NewDocument("d1")
//	root := b.Enter("movie", "")
//	title := b.Enter("title", "Matrix")
//	b.Leave() // title
//	b.Leave() // movie
//	b.Close()
type DocumentBuilder struct {
	c     *Collection
	doc   DocID
	stack []open
	done  bool
}

// open is an element between Enter and Leave: its last child so far
// (InvalidNode for none), which only the builder needs, and its text so
// far, interned when the element is left.
type open struct {
	id, lastChild NodeID
	text          string
}

// NewDocument starts a new document with the given unique name.  Panics if
// the name is already used or the collection is frozen.
func (c *Collection) NewDocument(name string) *DocumentBuilder {
	if c.frozen {
		panic("xmlgraph: NewDocument on frozen collection")
	}
	if _, dup := c.docByName[name]; dup {
		panic(fmt.Sprintf("xmlgraph: duplicate document name %q", name))
	}
	id := DocID(len(c.docs))
	c.docs = append(c.docs, Document{
		Name:  name,
		Root:  InvalidNode,
		first: NodeID(c.NumNodes()),
		last:  NodeID(c.NumNodes()),
	})
	c.docByName[name] = id
	return &DocumentBuilder{c: c, doc: id}
}

// Enter appends a new element below the current element (or as the document
// root) and makes it current.  It returns the new element's ID.
func (b *DocumentBuilder) Enter(tag, text string) NodeID {
	if b.done {
		panic("xmlgraph: Enter after Close")
	}
	c := b.c
	id := NodeID(c.NumNodes())
	parent := InvalidNode
	if len(b.stack) > 0 {
		top := &b.stack[len(b.stack)-1]
		parent = top.id
		if top.lastChild != InvalidNode {
			c.nextSibling[top.lastChild] = id
		}
		top.lastChild = id
	} else if c.docs[b.doc].Root != InvalidNode {
		panic("xmlgraph: second root element in document " + c.docs[b.doc].Name)
	} else {
		c.docs[b.doc].Root = id
	}
	tagID, ok := c.tagIndex[tag]
	if !ok {
		tagID = int32(len(c.tagNames))
		c.tagIndex[tag] = tagID
		c.tagNames = append(c.tagNames, tag)
	}
	c.tagIDs = append(c.tagIDs, tagID)
	c.textIDs = append(c.textIDs, 0)
	c.docOf = append(c.docOf, b.doc)
	c.parent = append(c.parent, parent)
	c.nextSibling = append(c.nextSibling, InvalidNode)
	b.stack = append(b.stack, open{id: id, lastChild: InvalidNode, text: text})
	c.docs[b.doc].last = id + 1
	return id
}

// SetXMLID records the xml:id attribute of the current element.
func (b *DocumentBuilder) SetXMLID(id string) {
	if len(b.stack) == 0 {
		panic("xmlgraph: SetXMLID outside element")
	}
	if b.c.xmlIDs == nil {
		b.c.xmlIDs = make(map[NodeID]string)
	}
	b.c.xmlIDs[b.stack[len(b.stack)-1].id] = id
}

// AppendText appends character data to the current element's text.
func (b *DocumentBuilder) AppendText(s string) {
	if len(b.stack) == 0 {
		panic("xmlgraph: AppendText outside element")
	}
	b.stack[len(b.stack)-1].text += s
}

// Leave closes the current element and interns its text.
func (b *DocumentBuilder) Leave() {
	if len(b.stack) == 0 {
		panic("xmlgraph: Leave without matching Enter")
	}
	top := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	c := b.c
	textID, ok := c.textIndex[top.text]
	if !ok {
		textID = int32(len(c.texts))
		c.textIndex[top.text] = textID
		c.texts = append(c.texts, top.text)
	}
	c.textIDs[top.id] = textID
}

// Close finishes the document.  Panics if elements are still open or the
// document is empty.
func (b *DocumentBuilder) Close() {
	if b.done {
		return
	}
	if len(b.stack) != 0 {
		panic(fmt.Sprintf("xmlgraph: Close with %d open elements", len(b.stack)))
	}
	if b.c.docs[b.doc].Root == InvalidNode {
		panic("xmlgraph: Close on empty document " + b.c.docs[b.doc].Name)
	}
	b.done = true
}

// AddLeaf is a convenience for Enter(tag, text) immediately followed by
// Leave; it returns the new element's ID.
func (b *DocumentBuilder) AddLeaf(tag, text string) NodeID {
	id := b.Enter(tag, text)
	b.Leave()
	return id
}
