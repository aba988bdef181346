package xmlgraph

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// textCollection builds one document per text: a root <r> with one <tag>
// child per (tag, text) pair, in the order given.
func textCollection(freeze bool, elems ...[2]string) *Collection {
	c := NewCollection()
	b := c.NewDocument("d")
	b.Enter("r", "")
	for _, e := range elems {
		b.AddLeaf(e[0], e[1])
	}
	b.Leave()
	b.Close()
	if freeze {
		c.Freeze()
	}
	return c
}

// scanContaining is what the dictionary must reproduce: the elements named
// tag whose lowered text contains the lowered needle.
func scanContaining(c *Collection, tag, needle string) []NodeID {
	var out []NodeID
	for _, n := range c.NodesByTag(tag) {
		if strings.Contains(strings.ToLower(c.Node(n).Text), needle) {
			out = append(out, n)
		}
	}
	return out
}

func TestTextDictLookups(t *testing.T) {
	c := textCollection(true,
		[2]string{"t", "Adaptive XML indexing"},
		[2]string{"t", "xml\tXML\nxml"}, // repeated token, tab and newline separators
		[2]string{"t", ""},
		[2]string{"u", "xml"},
		[2]string{"t", "  indexing\r\n"},
		[2]string{"t", "İstanbul Straße K \xff\xfe"}, // non-ASCII folds, invalid UTF-8
		[2]string{"t", "non breaking"},               // U+00A0 is not a separator
		[2]string{"t", "reindexing indexes"},
	)
	d := c.TextDict("t")
	if d == nil {
		t.Fatal("no dictionary for a tag the frozen collection has")
	}
	for _, needle := range []string{
		"xml", "x", "ml", "index", "indexing", "ing", "adaptive", "absent",
		"i", "ß", "k", "�", "��", "non b", "e", "s",
	} {
		got, want := d.Containing(needle), scanContaining(c, "t", needle)
		if !slices.Equal(got, want) {
			t.Errorf("Containing(%q) = %v, scan %v", needle, got, want)
		}
	}
	// Exact: the whole-token postings, each element once however often the
	// token repeats in it.
	if got := d.Exact("xml"); !slices.Equal(got, []NodeID{1, 2}) {
		t.Errorf(`Exact("xml") = %v, want [1 2]`, got)
	}
	if got := d.Exact("index"); got != nil {
		t.Errorf(`Exact("index") = %v: a substring is not a token`, got)
	}
	if got := d.Exact("zzz"); got != nil {
		t.Errorf(`Exact("zzz") = %v`, got)
	}
	if got := d.Exact("indexing"); !slices.Equal(got, []NodeID{1, 5}) {
		t.Errorf(`Exact("indexing") = %v, want [1 5]`, got)
	}

	for s, want := range map[string]bool{
		"xml": true, "": false, "a b": false, "a\tb": false, "a\nb": false,
		"a\vb": false, "a\fb": false, "a\rb": false, "a b": true, "ß": true,
	} {
		if IsTextToken(s) != want {
			t.Errorf("IsTextToken(%q) = %v", s, !want)
		}
	}
}

// TestTextDictLazy: nothing exists until a tag is asked for, names no element
// carries leave nothing behind, and an unfrozen collection has none.
func TestTextDictLazy(t *testing.T) {
	c := textCollection(true, [2]string{"t", "a b"}, [2]string{"u", "c"})
	if st := c.TextDictStats(); len(st) != 0 {
		t.Fatalf("dictionaries after Freeze: %+v", st)
	}
	for i := 0; i < 100; i++ {
		if d := c.TextDict(fmt.Sprintf("made-up-%d", i)); d != nil {
			t.Fatalf("dictionary for a name no element carries")
		}
	}
	if st := c.TextDictStats(); len(st) != 0 {
		t.Fatalf("made-up names left dictionaries behind: %+v", st)
	}
	if c.TextDict("t") != c.TextDict("t") {
		t.Fatal("second use built a second dictionary")
	}
	c.TextDict("r")
	st := c.TextDictStats()
	if len(st) != 2 || st[0].Tag != "r" || st[1].Tag != "t" {
		t.Fatalf("stats = %+v, want r and t", st)
	}
	if st[1].Tokens != 2 || st[1].Postings != 2 || st[1].Bytes <= 0 {
		t.Errorf("stats of t = %+v, want 2 tokens, 2 postings", st[1])
	}
	if st[0].Tokens != 0 || st[0].Postings != 0 {
		t.Errorf("stats of r (no text) = %+v", st[0])
	}
	if got := c.TextDict("r").Containing("a"); got != nil {
		t.Errorf("empty dictionary answered %v", got)
	}

	if d := textCollection(false, [2]string{"t", "a"}).TextDict("t"); d != nil {
		t.Error("dictionary on an unfrozen collection")
	}
}

// TestTextDictConcurrentFirstUse races the first use of the same and of
// different tags (run with -race): every goroutine must see one dictionary
// per tag, with the scan's answers.
func TestTextDictConcurrentFirstUse(t *testing.T) {
	var elems [][2]string
	tags := []string{"a", "b", "c", "d"}
	words := []string{"alpha", "beta", "gamma", "alphabet", "Beta-Gamma"}
	for i := 0; i < 4000; i++ {
		elems = append(elems, [2]string{tags[i%len(tags)], words[i%len(words)] + " " + words[(i/3)%len(words)]})
	}
	c := textCollection(true, elems...)
	const goroutines = 8
	dicts := make([][]*TextDict, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := range tags {
				tag := tags[(g+i)%len(tags)] // same tags, staggered
				d := c.TextDict(tag)
				dicts[g] = append(dicts[g], d)
				if got, want := d.Containing("alpha"), scanContaining(c, tag, "alpha"); !slices.Equal(got, want) {
					t.Errorf("goroutine %d tag %s: %d elements, scan %d", g, tag, len(got), len(want))
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range dicts {
		for i, d := range dicts[g] {
			if tag := tags[(g+i)%len(tags)]; d != c.TextDict(tag) {
				t.Errorf("goroutine %d got its own dictionary for %s", g, tag)
			}
		}
	}
	if st := c.TextDictStats(); len(st) != len(tags) {
		t.Errorf("%d dictionaries for %d tags", len(st), len(tags))
	}
}
