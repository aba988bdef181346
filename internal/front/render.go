package front

// Rendering: the public endpoints' 200 bodies are written here, by hand, in
// one pass into the pooled buffer OK owns — the bytes encoding/json's
// Encoder with SetIndent("", "  ") produced for the map and the wire
// structs these responses used to be, without the reflective walk, the
// compact intermediate or the second pass of json.Indent.  Every rule an
// encoder of this kind has to copy is a short function below: key order,
// string escapes, float formatting, omitempty, null against [].
// TestRenderMatchesEncodingJSON holds each to encoding/json.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"unicode"
	"unicode/utf8"

	"repro/internal/xmlgraph"
)

// Reply is what only the serving tier reports in a response: Backend.Finish
// and FinishBatch fill it, the front renders it.  In a single-query
// response a field appears when its bit is in Has; a batch response always
// carries generation and omits an empty failedShards, as BatchResponse
// declares.
type Reply struct {
	Has ReplyFields

	Generation   uint64 // node: the index generation that answered
	Truncated    bool   // node: a ranked evaluation was cut short
	Partial      bool   // router: a gather lost work
	FailedShards []int  // router, with Partial; nil renders as null
	Rounds       int    // router: gather rounds of a descendants query
	// Trace is the evaluation trace, nil for none.  It is the one value the
	// front still hands to encoding/json.
	Trace any
}

// ReplyFields names the optional fields of a Reply.
type ReplyFields uint8

const (
	HasGeneration ReplyFields = 1 << iota
	HasTruncated
	HasPartial // partial and failedShards
	HasRounds
)

// encoder appends one indented JSON document to buf, from the hits, items
// and reply of b.  The document ends up in b.indented: buf starts as that
// buffer's spare capacity, so flushing copies nothing unless the document
// outgrew it.
type encoder struct {
	coll *xmlgraph.Collection
	b    *okBuf
	buf  []byte
	// comma is pending before the next key of the top-level object.
	comma bool
	err   error
}

// newline holds a line break and the deepest indentation a response has.
const newline = "\n            "

// nl starts a line at the given depth.
func (e *encoder) nl(depth int) { e.buf = append(e.buf, newline[:1+2*depth]...) }

// key starts a member of the top-level object.
func (e *encoder) key(name string) {
	if e.comma {
		e.buf = append(e.buf, ',')
	}
	e.comma = true
	e.buf = append(e.buf, "\n  \""...)
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, "\": "...)
}

func (e *encoder) bool(v bool)   { e.buf = strconv.AppendBool(e.buf, v) }
func (e *encoder) int(v int64)   { e.buf = strconv.AppendInt(e.buf, v, 10) }
func (e *encoder) uint(v uint64) { e.buf = strconv.AppendUint(e.buf, v, 10) }

// ints writes a top-level member's list of integers: null when nil, [] when
// empty, else one element a line.
func (e *encoder) ints(v []int) {
	switch {
	case v == nil:
		e.buf = append(e.buf, "null"...)
	case len(v) == 0:
		e.buf = append(e.buf, "[]"...)
	default:
		e.buf = append(e.buf, '[')
		for i, n := range v {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.nl(2)
			e.int(int64(n))
		}
		e.nl(1)
		e.buf = append(e.buf, ']')
	}
}

// jsonSafe marks the ASCII bytes encoding/json copies into a string as they
// are with EscapeHTML on (its htmlSafeSet): everything from the space up
// except the quote, the backslash and <, >, &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendEscaped appends s as the inside of a JSON string, escaped as
// encoding/json escapes with EscapeHTML on: \" and \\, the short forms of
// \b \f \n \r \t, \u00XX for the other controls and for <, >, &,
// \u2028 and \u2029, and \ufffd for each byte of invalid UTF-8.
func appendEscaped[S []byte | string](dst []byte, s S) []byte {
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		// A string of at most one rune stays on the stack when s is bytes.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

func (e *encoder) string(s string) {
	e.buf = append(e.buf, '"')
	e.buf = appendEscaped(e.buf, s)
	e.buf = append(e.buf, '"')
}

var errUnsupportedFloat = errors.New("front: NaN and the infinities have no JSON form")

// float writes f as encoding/json's float64 encoder does: the shortest
// digits that round-trip, in 'f' form, or 'e' form below 1e-6 and from
// 1e21 with a one-digit negative exponent unpadded (e-09 becomes e-9).
// NaN and the infinities fail the response.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.err = errUnsupportedFloat
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(e.buf); format == 'e' && n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
		e.buf[n-2] = e.buf[n-1]
		e.buf = e.buf[:n-1]
	}
}

// hit is one result on its way to the wire.  What the element looks like —
// tag, document, text — is read from the collection when it is written.
type hit struct {
	node  xmlgraph.NodeID
	dist  int32   // connection distance; the matched path length of a ranked result
	score float64 // ranked results only
}

// maxPooledHits is the longest hit list kept for the next response (1 MiB
// of hits), as maxPooledOK is for the buffers.
const maxPooledHits = 1 << 16

// elemKeys are the lines of a result element up to each value, and the one
// that ends the list, for elements of one depth.
type elemKeys struct {
	open, node, tag, doc, text, dist, score, pathLen, close, endList string
	// omitZero leaves a ranked element's score and pathLen out when zero.
	omitZero bool
}

func newElemKeys(depth int, omitZero bool) elemKeys {
	in := newline[:1+2*(depth+1)]
	line := func(name string) string { return "," + in + `"` + name + `": ` }
	return elemKeys{
		open:    newline[:1+2*depth] + "{",
		node:    line("node")[1:], // the first member: no comma
		tag:     line("tag"),
		doc:     line("doc"),
		text:    line("text"),
		dist:    line("dist"),
		score:   line("score"),
		pathLen: line("pathLen"),
		close:   newline[:1+2*depth] + "}",
		endList: newline[:1+2*(depth-1)] + "]",

		omitZero: omitZero,
	}
}

// Result elements sit at depth 2 in a single-query response and at depth 4
// in a batch, where BatchResult declares score and pathLen omitempty.
var queryKeys, batchKeys = newElemKeys(2, false), newElemKeys(4, true)

// An element's text goes on the wire as a snippet: its whitespace-separated
// fields joined by one space, and past snippetMax bytes the first
// snippetCut — less a rune the cut would split — and "...".
const (
	snippetMax = 80
	snippetCut = 77
)

// snippetBuf holds a snippet up to the point where it is known to be too
// long: one separator and one rune past snippetMax.
type snippetBuf [snippetMax + 1 + utf8.UTFMax]byte

// makeSnippet writes the snippet of t into buf and returns it; empty when t
// has no field.
func makeSnippet(buf *snippetBuf, t string) []byte {
	n, sep := 0, false
	for i := 0; i < len(t) && n <= snippetMax; {
		c, size, space := t[i], 1, false
		if c < utf8.RuneSelf {
			space = c == ' ' || c-'\t' < 5 // \t \n \v \f \r
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(t[i:])
			space = unicode.IsSpace(r)
		}
		i += size
		if space {
			sep = n > 0
			continue
		}
		if sep {
			buf[n] = ' '
			n++
			sep = false
		}
		if size == 1 {
			buf[n] = c
			n++
		} else {
			n += copy(buf[n:], t[i-size:i])
		}
	}
	if n <= snippetMax {
		return buf[:n]
	}
	cut := snippetCut
	if !utf8.RuneStart(buf[cut]) {
		// The cut falls inside a rune: drop the bytes of it before the cut,
		// unless they are no rune's beginning anyway (invalid UTF-8 goes out
		// as \ufffd wherever it is cut).
		p := cut - 1
		for p > cut-utf8.UTFMax+1 && !utf8.RuneStart(buf[p]) {
			p--
		}
		if !utf8.FullRune(buf[p:cut]) {
			cut = p
		}
	}
	return buf[:cut+copy(buf[cut:], "...")]
}

// element writes one result element; a ranked one carries score and
// pathLen.
func (e *encoder) element(k *elemKeys, h hit, ranked bool) {
	nd := e.coll.Node(h.node)
	e.buf = append(e.buf, k.open...)
	e.buf = append(e.buf, k.node...)
	e.int(int64(h.node))
	e.buf = append(e.buf, k.tag...)
	e.string(nd.Tag)
	e.buf = append(e.buf, k.doc...)
	e.string(e.coll.Doc(nd.Doc).Name)
	var sb snippetBuf
	if text := makeSnippet(&sb, nd.Text); len(text) > 0 {
		e.buf = append(e.buf, k.text...)
		e.buf = append(e.buf, '"')
		e.buf = appendEscaped(e.buf, text)
		e.buf = append(e.buf, '"')
	}
	e.buf = append(e.buf, k.dist...)
	e.int(int64(h.dist))
	if ranked && !(k.omitZero && h.score == 0) {
		e.buf = append(e.buf, k.score...)
		e.float(h.score)
	}
	if ranked && !(k.omitZero && h.dist == 0) {
		e.buf = append(e.buf, k.pathLen...)
		e.int(int64(h.dist))
	}
	e.buf = append(e.buf, k.close...)
}

// elements writes a result list.
func (e *encoder) elements(k *elemKeys, hits []hit, ranked bool) {
	if len(hits) == 0 {
		e.buf = append(e.buf, "[]"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i, h := range hits {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.element(k, h, ranked)
	}
	e.buf = append(e.buf, k.endList...)
}

// flush moves what buf holds into the pooled buffer and points buf at the
// capacity left.
func (e *encoder) flush() {
	e.b.indented.Write(e.buf)
	e.buf = e.b.indented.AvailableBuffer()
}

// trace writes the evaluation trace through encoding/json: compact, then
// indented with the prefix of the depth it sits at — the bytes the old
// encoder produced for it one level down in the response.
func (e *encoder) trace(v any) {
	compact := &e.b.compact
	compact.Reset()
	if err := json.NewEncoder(compact).Encode(v); err != nil {
		e.err = err
		return
	}
	e.flush()
	doc := bytes.TrimSuffix(compact.Bytes(), []byte("\n"))
	if err := json.Indent(&e.b.indented, doc, "  ", "  "); err != nil {
		e.err = err
	}
	e.buf = e.b.indented.AvailableBuffer()
}

// A single-query response is one object whose keys stand in alphabetical
// order — the order encoding/json gives the keys of a map, which is what
// the response was: connected, count, dist, failedShards, generation,
// partial, results, rounds, timedOut, trace, truncated.  replyHead writes
// the tier's keys that sort before "results", replyTail the rest.

func (e *encoder) replyHead() {
	r := &e.b.reply
	if r.Has&HasPartial != 0 {
		e.key("failedShards")
		e.ints(r.FailedShards)
	}
	if r.Has&HasGeneration != 0 {
		e.key("generation")
		e.uint(r.Generation)
	}
	if r.Has&HasPartial != 0 {
		e.key("partial")
		e.bool(r.Partial)
	}
}

func (e *encoder) replyTail(timedOut bool) {
	r := &e.b.reply
	if r.Has&HasRounds != 0 {
		e.key("rounds")
		e.int(int64(r.Rounds))
	}
	e.key("timedOut")
	e.bool(timedOut)
	if r.Trace != nil {
		e.key("trace")
		e.trace(r.Trace)
	}
	if r.Has&HasTruncated != 0 {
		e.key("truncated")
		e.bool(r.Truncated)
	}
}

// begin starts a response in b's pooled buffer.
func (f *Front) begin(b *okBuf) encoder {
	b.indented.Reset()
	return encoder{coll: f.coll, b: b, buf: append(b.indented.AvailableBuffer(), '{')}
}

// send closes the top-level object and writes the response in one Write —
// or, as the encoder it replaces, nothing at all when a value had no JSON
// form.
func (e *encoder) send(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	if e.err != nil {
		return
	}
	e.buf = append(e.buf, "\n}\n"...)
	e.flush()
	w.Write(e.b.indented.Bytes()) //nolint:errcheck // client gone; nothing to do
}

// writeList renders a /v1/descendants or (ranked) /v1/query answer: b's
// hits and what the tier put in b's reply.
func (f *Front) writeList(w http.ResponseWriter, b *okBuf, ranked, timedOut bool) {
	e := f.begin(b)
	e.key("count")
	e.int(int64(len(b.hits)))
	e.replyHead()
	e.key("results")
	e.elements(&queryKeys, b.hits, ranked)
	e.replyTail(timedOut)
	e.send(w)
}

// writeConnected renders a /v1/connected answer.
func (f *Front) writeConnected(w http.ResponseWriter, b *okBuf, connected bool, dist int32, timedOut bool) {
	e := f.begin(b)
	e.key("connected")
	e.bool(connected)
	if connected {
		e.key("dist")
		e.int(int64(dist))
	}
	e.replyHead()
	e.replyTail(timedOut)
	e.send(w)
}

// batchItem is one item's answer before it is written; its results are
// b.hits[off : off+n].
type batchItem struct {
	status, err                 string
	off, n                      int
	ranked, truncated, cacheHit bool
}

// writeBatch renders a /v1/batch answer — b's items, in request order — with
// the members of BatchResponse and BatchItem in declaration order and
// omitempty as declared there.
func (f *Front) writeBatch(w http.ResponseWriter, b *okBuf, completed int, partial, timedOut bool) {
	e := f.begin(b)
	e.key("results")
	e.buf = append(e.buf, '[')
	for i := range b.items {
		it := &b.items[i]
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, "\n    {\n      \"status\": "...)
		e.string(it.status)
		if it.err != "" {
			e.buf = append(e.buf, ",\n      \"error\": "...)
			e.string(it.err)
		}
		if it.n > 0 {
			e.buf = append(e.buf, ",\n      \"results\": "...)
			e.elements(&batchKeys, b.hits[it.off:it.off+it.n], it.ranked)
		}
		e.buf = append(e.buf, ",\n      \"count\": "...)
		e.int(int64(it.n))
		if it.truncated {
			e.buf = append(e.buf, ",\n      \"truncated\": true"...)
		}
		if it.cacheHit {
			e.buf = append(e.buf, ",\n      \"cacheHit\": true"...)
		}
		e.buf = append(e.buf, "\n    }"...)
	}
	e.buf = append(e.buf, "\n  ]"...)
	e.key("completed")
	e.int(int64(completed))
	if partial {
		e.key("partial")
		e.bool(true)
	}
	e.key("timedOut")
	e.bool(timedOut)
	e.key("generation")
	e.uint(b.reply.Generation)
	if len(b.reply.FailedShards) > 0 {
		e.key("failedShards")
		e.ints(b.reply.FailedShards)
	}
	e.send(w)
}
