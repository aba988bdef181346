package xmlgraph

import (
	"math/bits"
	"sort"
	"strings"
	"time"
)

// TextDict is the inverted text dictionary of one element name: the distinct
// tokens of strings.ToLower(Text) over every element with that name, split
// at ASCII whitespace and sorted, each with the ascending list of the
// elements it occurs in.  It answers the content half of a content-and-
// structure query — which elements named tag contain this word — from the
// vocabulary instead of from every element's text.
//
// A needle without whitespace cannot straddle two tokens, so the elements
// whose lowered text contains it are exactly the union of the postings of the
// tokens that contain it (Containing); an element whose text equals a
// whitespace-free value holds that value, lowered, as its only token (Exact).
//
// A dictionary is immutable once built and safe for concurrent reads.
type TextDict struct {
	tag string
	// vocab is every token followed by one space, in ascending token order:
	// the space keeps a whitespace-free needle from matching across two
	// tokens.  Token i is vocab[start[i] : start[i+1]-1] and its postings are
	// posts[first[i]:first[i+1]].
	vocab string
	start []uint32
	first []uint32
	posts []NodeID
	// lo and span delimit the node IDs of the tag's elements; they size the
	// bitset that merges several posting lists.
	lo    NodeID
	span  int
	built time.Duration
}

// IsTextToken reports whether s can be looked up in a TextDict: non-empty and
// free of the ASCII whitespace the dictionary splits at.
func IsTextToken(s string) bool {
	return s != "" && strings.IndexFunc(s, isASCIISpace) < 0
}

func isASCIISpace(r rune) bool {
	return r == ' ' || (r >= '\t' && r <= '\r')
}

// TextDict returns the text dictionary of the elements named tag, building
// it on the first call (a few milliseconds for tens of thousands of
// elements, not cancellable); later calls take no lock.  It returns nil on an
// unfrozen collection and for a name no element carries, so that made-up
// names leave nothing behind: the dictionaries of a collection are bounded by
// its own text.
func (c *Collection) TextDict(tag string) *TextDict {
	nodes := c.byTag[tag]
	if !c.frozen || len(nodes) == 0 {
		return nil
	}
	if d, ok := c.textDicts.Load(tag); ok {
		return d.(*TextDict)
	}
	c.textBuild.Lock()
	defer c.textBuild.Unlock()
	if d, ok := c.textDicts.Load(tag); ok {
		return d.(*TextDict)
	}
	d := buildTextDict(c, tag, nodes)
	c.textDicts.Store(tag, d)
	return d
}

func buildTextDict(c *Collection, tag string, nodes []NodeID) *TextDict {
	t0 := time.Now()
	byToken := make(map[string][]NodeID)
	for _, n := range nodes {
		for _, tok := range strings.FieldsFunc(strings.ToLower(c.nodes[n].Text), isASCIISpace) {
			// nodes ascends, so a token repeated within one element shows as
			// the tail of its list.
			if l := byToken[tok]; len(l) == 0 || l[len(l)-1] != n {
				byToken[tok] = append(l, n)
			}
		}
	}
	tokens := make([]string, 0, len(byToken))
	vocabLen, postings := 0, 0
	for tok, l := range byToken {
		tokens = append(tokens, tok)
		vocabLen += len(tok) + 1
		postings += len(l)
	}
	sort.Strings(tokens)

	d := &TextDict{
		tag:   tag,
		start: make([]uint32, 0, len(tokens)+1),
		first: make([]uint32, 0, len(tokens)+1),
		posts: make([]NodeID, 0, postings),
		lo:    nodes[0],
		span:  int(nodes[len(nodes)-1]-nodes[0]) + 1,
	}
	var vocab strings.Builder
	vocab.Grow(vocabLen)
	for _, tok := range tokens {
		d.start = append(d.start, uint32(vocab.Len()))
		d.first = append(d.first, uint32(len(d.posts)))
		vocab.WriteString(tok)
		vocab.WriteByte(' ')
		d.posts = append(d.posts, byToken[tok]...)
	}
	d.start = append(d.start, uint32(vocab.Len()))
	d.first = append(d.first, uint32(len(d.posts)))
	d.vocab = vocab.String()
	d.built = time.Since(t0)
	return d
}

func (d *TextDict) postings(i int) []NodeID { return d.posts[d.first[i]:d.first[i+1]] }

// Exact returns the elements holding token as one whole token, ascending.
// token must be lowered and satisfy IsTextToken.  Callers must not modify
// the result.
func (d *TextDict) Exact(token string) []NodeID {
	i, found := sort.Find(len(d.start)-1, func(i int) int {
		return strings.Compare(token, d.vocab[d.start[i]:d.start[i+1]-1])
	})
	if !found {
		return nil
	}
	return d.postings(i)
}

// Containing returns the elements whose lowered text contains needle,
// ascending and each once.  needle must be lowered and satisfy IsTextToken.
// Callers must not modify the result.
func (d *TextDict) Containing(needle string) []NodeID {
	var one []NodeID // the postings of the first matching token
	var set []uint64 // the union, once a second token matches
	mark := func(l []NodeID) {
		for _, n := range l {
			set[(n-d.lo)>>6] |= 1 << ((n - d.lo) & 63)
		}
	}
	total := 0
	for off := 0; off < len(d.vocab); {
		p := strings.Index(d.vocab[off:], needle)
		if p < 0 {
			break
		}
		hit := uint32(off + p)
		i := sort.Search(len(d.start)-1, func(i int) bool { return d.start[i+1] > hit })
		off = int(d.start[i+1]) // the next hit that counts lies in a later token
		l := d.postings(i)
		total += len(l)
		switch {
		case one == nil:
			one = l
		case set == nil:
			set = make([]uint64, (d.span+63)/64)
			mark(one)
			mark(l)
		default:
			mark(l)
		}
	}
	if set == nil {
		return one
	}
	out := make([]NodeID, 0, min(total, d.span))
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			out = append(out, d.lo+NodeID(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// TextDictStats describes one built dictionary.
type TextDictStats struct {
	Tag      string
	Tokens   int
	Postings int
	// Bytes is the memory the dictionary holds.
	Bytes int
	// Build is how long its first use took to build it.
	Build time.Duration
}

// TextDictStats lists the dictionaries built so far, by tag.
func (c *Collection) TextDictStats() []TextDictStats {
	var out []TextDictStats
	c.textDicts.Range(func(_, v any) bool {
		d := v.(*TextDict)
		out = append(out, TextDictStats{
			Tag:      d.tag,
			Tokens:   len(d.start) - 1,
			Postings: len(d.posts),
			Bytes:    len(d.vocab) + 4*(len(d.start)+len(d.first)+len(d.posts)),
			Build:    d.built,
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}
