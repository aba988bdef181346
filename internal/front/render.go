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
	"unicode/utf8"
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

// encoder appends one indented JSON document to buf.  out is the pooled
// buffer the document ends up in: buf starts as its spare capacity, so
// flushing copies nothing unless the document outgrew it.
type encoder struct {
	out *bytes.Buffer
	buf []byte
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

// ints writes a list of integers at the given depth: null when nil, []
// when empty, else one element a line.
func (e *encoder) ints(v []int, depth int) {
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
			e.nl(depth + 1)
			e.int(int64(n))
		}
		e.nl(depth)
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
func appendEscaped(dst []byte, s string) []byte {
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
		r, size := utf8.DecodeRuneInString(s[i:])
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

// elemStyle says which fields a result element carries.
type elemStyle uint8

const (
	plainElems  elemStyle = iota // node, tag, doc, text, dist
	rankedElems                  // and score and pathLen, always (/v1/query)
	batchElems                   // and score and pathLen unless zero (a batch item)
)

// elemKeys are the lines of a result element up to each value, for
// elements of one depth.
type elemKeys struct {
	open, node, tag, doc, text, dist, score, pathLen, close string
}

func newElemKeys(depth int) elemKeys {
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
	}
}

// Result elements sit at depth 2 in a single-query response and at depth 4
// in a batch.
var queryKeys, batchKeys = newElemKeys(2), newElemKeys(4)

// element writes one result element.
func (e *encoder) element(k *elemKeys, el *Element, score float64, pathLen int32, style elemStyle) {
	e.buf = append(e.buf, k.open...)
	e.buf = append(e.buf, k.node...)
	e.int(int64(el.Node))
	e.buf = append(e.buf, k.tag...)
	e.string(el.Tag)
	e.buf = append(e.buf, k.doc...)
	e.string(el.Doc)
	if el.Text != "" {
		e.buf = append(e.buf, k.text...)
		e.string(el.Text)
	}
	e.buf = append(e.buf, k.dist...)
	e.int(int64(el.Dist))
	if style == rankedElems || style == batchElems && score != 0 {
		e.buf = append(e.buf, k.score...)
		e.float(score)
	}
	if style == rankedElems || style == batchElems && pathLen != 0 {
		e.buf = append(e.buf, k.pathLen...)
		e.int(int64(pathLen))
	}
	e.buf = append(e.buf, k.close...)
}

// elements writes a result list whose bracket sits at depth; n is its
// length and each(i) writes element i.
func (e *encoder) elements(n, depth int, each func(i int)) {
	if n == 0 {
		e.buf = append(e.buf, "[]"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		each(i)
	}
	e.nl(depth)
	e.buf = append(e.buf, ']')
}

// flush moves what buf holds into out and points buf at the capacity left.
func (e *encoder) flush() {
	e.out.Write(e.buf)
	e.buf = e.out.AvailableBuffer()
}

// trace writes the evaluation trace through encoding/json: compact, then
// indented with the prefix of the depth it sits at — the bytes the old
// encoder produced for it one level down in the response.
func (e *encoder) trace(v any, compact *bytes.Buffer) {
	compact.Reset()
	if err := json.NewEncoder(compact).Encode(v); err != nil {
		e.err = err
		return
	}
	e.flush()
	doc := bytes.TrimSuffix(compact.Bytes(), []byte("\n"))
	if err := json.Indent(e.out, doc, "  ", "  "); err != nil {
		e.err = err
	}
	e.buf = e.out.AvailableBuffer()
}

// A single-query response is one object whose keys stand in alphabetical
// order — the order encoding/json gives the keys of a map, which is what
// the response was: connected, count, dist, failedShards, generation,
// partial, results, rounds, timedOut, trace, truncated.  replyHead writes
// the tier's keys that sort before "results", replyTail the rest.

func (e *encoder) replyHead(r *Reply) {
	if r.Has&HasPartial != 0 {
		e.key("failedShards")
		e.ints(r.FailedShards, 1)
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

func (e *encoder) replyTail(b *okBuf, r *Reply, timedOut bool) {
	if r.Has&HasRounds != 0 {
		e.key("rounds")
		e.int(int64(r.Rounds))
	}
	e.key("timedOut")
	e.bool(timedOut)
	if r.Trace != nil {
		e.key("trace")
		e.trace(r.Trace, &b.compact)
	}
	if r.Has&HasTruncated != 0 {
		e.key("truncated")
		e.bool(r.Truncated)
	}
}

// begin starts a response in b's pooled buffer.
func (b *okBuf) begin() encoder {
	b.indented.Reset()
	return encoder{out: &b.indented, buf: append(b.indented.AvailableBuffer(), '{')}
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
	w.Write(e.out.Bytes()) //nolint:errcheck // client gone; nothing to do
}

// writeList renders a /v1/descendants or /v1/query answer of n result
// elements.
func (b *okBuf) writeList(w http.ResponseWriter, r *Reply, timedOut bool, n int, each func(e *encoder, i int)) {
	e := b.begin()
	e.key("count")
	e.int(int64(n))
	e.replyHead(r)
	e.key("results")
	e.elements(n, 1, func(i int) { each(&e, i) })
	e.replyTail(b, r, timedOut)
	e.send(w)
}

// writeConnected renders a /v1/connected answer.
func (b *okBuf) writeConnected(w http.ResponseWriter, r *Reply, timedOut, connected bool, dist int32) {
	e := b.begin()
	e.key("connected")
	e.bool(connected)
	if connected {
		e.key("dist")
		e.int(int64(dist))
	}
	e.replyHead(r)
	e.replyTail(b, r, timedOut)
	e.send(w)
}

// writeBatch renders a /v1/batch answer: the members of BatchResponse and
// BatchItem in declaration order, omitempty as declared.
func (b *okBuf) writeBatch(w http.ResponseWriter, resp *BatchResponse) {
	e := b.begin()
	e.key("results")
	e.buf = append(e.buf, '[')
	for i := range resp.Results {
		it := &resp.Results[i]
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, "\n    {\n      \"status\": "...)
		e.string(it.Status)
		if it.Error != "" {
			e.buf = append(e.buf, ",\n      \"error\": "...)
			e.string(it.Error)
		}
		if len(it.Results) > 0 {
			e.buf = append(e.buf, ",\n      \"results\": "...)
			e.elements(len(it.Results), 3, func(j int) {
				r := &it.Results[j]
				e.element(&batchKeys, &r.Element, r.Score, r.PathLen, batchElems)
			})
		}
		e.buf = append(e.buf, ",\n      \"count\": "...)
		e.int(int64(it.Count))
		if it.Truncated {
			e.buf = append(e.buf, ",\n      \"truncated\": true"...)
		}
		if it.CacheHit {
			e.buf = append(e.buf, ",\n      \"cacheHit\": true"...)
		}
		e.buf = append(e.buf, "\n    }"...)
	}
	e.buf = append(e.buf, "\n  ]"...)
	e.key("completed")
	e.int(int64(resp.Completed))
	if resp.Partial {
		e.key("partial")
		e.bool(true)
	}
	e.key("timedOut")
	e.bool(resp.TimedOut)
	e.key("generation")
	e.uint(resp.Generation)
	if len(resp.FailedShards) > 0 {
		e.key("failedShards")
		e.ints(resp.FailedShards, 1)
	}
	e.send(w)
}
