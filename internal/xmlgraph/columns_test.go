package xmlgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// element is what TestBuilderColumns records of one element itself, beside
// the collection that stores it in columns.
type element struct {
	tag, text, xmlID string
	doc              DocID
	parent           NodeID
	children         []NodeID
}

// recorder drives a DocumentBuilder and keeps its own record of every
// element it adds.
type recorder struct {
	t     *testing.T
	c     *Collection
	b     *DocumentBuilder
	elems []element
	open  []NodeID
}

func (r *recorder) doc(name string) { r.b = r.c.NewDocument(name) }

func (r *recorder) enter(tag, text string) {
	id := r.b.Enter(tag, text)
	if int(id) != len(r.elems) {
		r.t.Fatalf("Enter(%q) = %d, want the next ID %d", tag, id, len(r.elems))
	}
	parent := InvalidNode
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
		r.elems[parent].children = append(r.elems[parent].children, id)
	}
	r.elems = append(r.elems, element{tag: tag, text: text, doc: r.b.DocID(), parent: parent})
	r.open = append(r.open, id)
}

func (r *recorder) appendText(s string) {
	r.b.AppendText(s)
	r.elems[r.open[len(r.open)-1]].text += s
}

func (r *recorder) setXMLID(id string) {
	r.b.SetXMLID(id)
	r.elems[r.open[len(r.open)-1]].xmlID = id
}

func (r *recorder) leave() {
	r.b.Leave()
	r.open = r.open[:len(r.open)-1]
	if len(r.open) == 0 {
		r.b.Close()
	}
}

func (r *recorder) leaf(tag, text string) {
	r.enter(tag, text)
	r.leave()
}

// random adds a document of about n elements whose tags, texts and IDs come
// from small sets, so that many elements share each.
func (r *recorder) random(rng *rand.Rand, name string, n int) {
	tags := []string{"a", "b", "c", "d"}
	texts := []string{"", "x", "y", "x y", "Zz"}
	ids := []string{"i1", "i2", "i3", ""}
	r.doc(name)
	r.enter(tags[rng.Intn(len(tags))], texts[rng.Intn(len(texts))])
	for added := 1; len(r.open) > 0; {
		switch k := rng.Intn(10); {
		case k < 4 && added < n:
			r.enter(tags[rng.Intn(len(tags))], texts[rng.Intn(len(texts))])
			added++
		case k < 6:
			r.appendText(texts[rng.Intn(len(texts))])
		case k < 7:
			r.setXMLID(ids[rng.Intn(len(ids))])
		default:
			r.leave()
		}
	}
}

// check holds every accessor of r.c to the record.
func (r *recorder) check(stage string) {
	t, c := r.t, r.c
	if c.NumNodes() != len(r.elems) {
		t.Fatalf("%s: NumNodes = %d, want %d", stage, c.NumNodes(), len(r.elems))
	}
	byTag := map[string][]NodeID{}
	textIDs := map[string]int32{"": 0}
	for i, e := range r.elems {
		n := NodeID(i)
		byTag[e.tag] = append(byTag[e.tag], n)
		if c.Tag(n) != e.tag || c.TagNames()[c.TagID(n)] != e.tag {
			t.Errorf("%s: node %d: Tag %q, TagNames[TagID] %q, want %q", stage, n, c.Tag(n), c.TagNames()[c.TagID(n)], e.tag)
		}
		if c.Text(n) != e.text || c.Texts()[c.TextID(n)] != e.text {
			t.Errorf("%s: node %d: Text %q, Texts[TextID] %q, want %q", stage, n, c.Text(n), c.Texts()[c.TextID(n)], e.text)
		}
		if id, ok := textIDs[e.text]; ok && id != c.TextID(n) {
			t.Errorf("%s: node %d: text %q has ID %d, an earlier element's has %d", stage, n, e.text, c.TextID(n), id)
		}
		textIDs[e.text] = c.TextID(n)
		if c.DocOf(n) != e.doc || c.Parent(n) != e.parent {
			t.Errorf("%s: node %d: DocOf %d Parent %d, want %d and %d", stage, n, c.DocOf(n), c.Parent(n), e.doc, e.parent)
		}
		if got := c.Children(n, nil); !slices.Equal(got, e.children) {
			t.Errorf("%s: node %d: Children %v, want %v", stage, n, got, e.children)
		}
		var each []NodeID
		c.EachChild(n, func(ch NodeID) { each = append(each, ch) })
		if !slices.Equal(each, e.children) {
			t.Errorf("%s: node %d: EachChild %v, want %v", stage, n, each, e.children)
		}
	}
	if texts := c.Texts(); texts[0] != "" || len(texts) != len(textIDs) {
		t.Errorf("%s: Texts %q: want the empty text first and each text of an element once", stage, texts)
	}

	var tags []string
	for tag, nodes := range byTag {
		tags = append(tags, tag)
		if got := c.NodesByTag(tag); !slices.Equal(got, nodes) {
			t.Errorf("%s: NodesByTag(%q) = %v, want %v", stage, tag, got, nodes)
		}
		if got := c.TagIDOf(tag); got != c.TagID(nodes[0]) {
			t.Errorf("%s: TagIDOf(%q) = %d, its elements carry %d", stage, tag, got, c.TagID(nodes[0]))
		}
	}
	slices.Sort(tags)
	if got := c.Tags(); !slices.Equal(got, tags) {
		t.Errorf("%s: Tags = %q, want %q", stage, got, tags)
	}
	if len(c.TagNames()) != len(tags) {
		t.Errorf("%s: TagNames = %q, want each of %q once", stage, c.TagNames(), tags)
	}
	if c.TagIDOf("no-such-tag") != -1 || len(c.NodesByTag("no-such-tag")) != 0 {
		t.Errorf("%s: an absent tag has ID %d and nodes %v", stage, c.TagIDOf("no-such-tag"), c.NodesByTag("no-such-tag"))
	}

	for d := DocID(0); int(d) < c.NumDocs(); d++ {
		for _, id := range []string{"i1", "i2", "i3", "a1", "no-such-id", ""} {
			want := InvalidNode
			for i, e := range r.elems {
				if e.doc == d && id != "" && e.xmlID == id {
					want = NodeID(i)
					break
				}
			}
			if got := c.FindByXMLID(d, id); got != want {
				t.Errorf("%s: FindByXMLID(%d, %q) = %d, want %d", stage, d, id, got, want)
			}
		}
	}
}

// TestBuilderColumns holds each accessor of the column store to a record
// the test keeps itself, before and after Freeze: text split around
// children and appended after Enter's, children in order for zero, one and
// many, xml:ids with and without, tag lookups, and equal texts sharing one
// text ID.  Run under -race.
func TestBuilderColumns(t *testing.T) {
	r := &recorder{t: t, c: NewCollection()}

	// <a>foo<b/>bar<c>pre+post</c>baz</a>
	r.doc("split.xml")
	r.enter("a", "")
	r.appendText("foo")
	r.leaf("b", "")
	r.appendText("bar")
	r.enter("c", "pre")
	r.appendText("+post")
	r.leave()
	r.appendText("baz")
	r.leave()

	// A root with many children sharing texts, one of which has exactly
	// one child; IDs on some of them.
	r.doc("kids.xml")
	r.enter("list", "")
	r.setXMLID("a1")
	for i, text := range []string{"same", "same", "other", "", "same"} {
		r.enter("item", text)
		if i == 2 {
			r.setXMLID("i2")
			r.leaf("sub", "same")
		}
		r.leave()
	}
	r.leave()

	// A document of one element, with an ID.
	r.doc("leaf.xml")
	r.enter("b", "bar")
	r.setXMLID("i1")
	r.leave()

	rng := rand.New(rand.NewSource(7))
	for i := range 6 {
		r.random(rng, fmt.Sprintf("random%d.xml", i), 5+rng.Intn(40))
	}

	r.check("before Freeze")
	r.c.Freeze()
	if r.c.textIndex != nil {
		t.Error("Freeze kept the build-time text index")
	}
	r.check("after Freeze")

	// A collection without IDs keeps no ID map and finds none.
	none := &recorder{t: t, c: NewCollection()}
	none.doc("plain.xml")
	none.enter("r", "")
	none.leaf("a", "x")
	none.leaf("a", "x")
	none.leave()
	none.c.Freeze()
	if none.c.xmlIDs != nil {
		t.Errorf("a collection without xml:ids holds %v", none.c.xmlIDs)
	}
	none.check("without IDs")
}
