package front

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// referenceOK is OK as it was before it rendered through pooled buffers: a
// json.Encoder with SetIndent writing to the response.  Kept here as the
// byte-for-byte reference.
func referenceOK(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck
}

// descendantsAnswer is a /v1/descendants answer with n result elements.
func descendantsAnswer(n int) map[string]any {
	results := make([]Element, n)
	for i := range results {
		results[i] = Element{Node: xmlgraph.NodeID(1000 + i), Tag: "title", Doc: fmt.Sprintf("pub%06d.xml", i),
			Text: "adaptive indexing XML queries efficient", Dist: int32(2 + i%5)}
	}
	return map[string]any{"results": results, "count": n, "timedOut": false, "generation": 3}
}

func TestOKBytesIdentical(t *testing.T) {
	cases := map[string]any{
		"escaped": map[string]any{
			"results": []match{{Element: Element{Node: 7, Tag: "t<i>&", Doc: "a&b.xml",
				Text: "x < y && y > z \u2028 line \u2029 sep \x00 \"quoted\" \\ é \xff", Dist: 1}, Score: 0.8, PathLen: 2}},
			"count": 1, "timedOut": false,
		},
		"empty list":    map[string]any{"results": []Element{}, "count": 0, "timedOut": true},
		"nil list":      map[string]any{"results": []Element(nil), "count": 0},
		"empty object":  map[string]any{},
		"hundred":       descendantsAnswer(100),
		"nested arrays": map[string]any{"a": [][]int{{}, {1}, {1, 2}}, "b": map[string]any{"c": map[string]any{}}},
		"scalar":        42,
		"batch": &BatchResponse{
			Results: []BatchItem{
				{Status: "ok", Count: 1, CacheHit: true, Results: []BatchResult{{Element: Element{Node: 1, Tag: "a", Doc: "d"}}}},
				{Status: "ok", Count: 1, Results: []BatchResult{{Element: Element{Node: 2, Tag: "b", Doc: "d", Text: "<&>"}, Score: 0.64, PathLen: 3}}},
				{Status: "error", Error: `query: position 2: expected element name or *`},
				{Status: "skipped"},
			},
			Completed: 3, Partial: true, TimedOut: true, Generation: 9, FailedShards: []int{1},
		},
		"unencodable": map[string]any{"f": func() {}},
	}
	for name, v := range cases {
		// Twice: the second response of a case reuses pooled buffers that
		// held another answer.
		for round := 0; round < 2; round++ {
			want, got := httptest.NewRecorder(), httptest.NewRecorder()
			referenceOK(want, v)
			OK(got, v)
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("%s: body differs\n got %q\nwant %q", name, got.Body.Bytes(), want.Body.Bytes())
			}
			if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
				t.Errorf("%s: Content-Type %q, want %q", name, g, w)
			}
		}
	}
}

// countingWriter counts the Write calls a response makes: framing (chunked
// or Content-Length) follows from them.
type countingWriter struct {
	http.ResponseWriter
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.ResponseWriter.Write(p)
}

func TestOKWritesOnce(t *testing.T) {
	cw := &countingWriter{ResponseWriter: httptest.NewRecorder()}
	OK(cw, descendantsAnswer(100))
	if cw.writes != 1 {
		t.Errorf("OK made %d writes, the encoder it replaces made 1", cw.writes)
	}
}

// TestOKDropsHugeBuffers: an answer above maxPooledOK must not leave its
// buffers in the pool.
func TestOKDropsHugeBuffers(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	huge := map[string]any{"text": strings.Repeat("x", maxPooledOK+1)}
	for i := 0; i < 4; i++ {
		OK(httptest.NewRecorder(), huge)
	}
	for i := 0; i < 64; i++ {
		b := okBufs.Get().(*okBuf)
		if b.compact.Cap() > maxPooledOK || b.indented.Cap() > maxPooledOK {
			t.Fatalf("the pool holds a %d/%d-byte buffer pair", b.compact.Cap(), b.indented.Cap())
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so the allocation
// budget below is OK's own.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

// TestOKAllocBudget holds a 100-result response to a small allocation
// budget on warm pooled buffers; referenceOK's indent buffer, regrown from
// nothing on every response, costs about 60 KB here.
func TestOKAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	v := descendantsAnswer(100)
	w := discardWriter{h: make(http.Header)}
	// TotalAlloc is process-wide, and a collection empties the pool: servers
	// that earlier tests are still shutting down, or a GC cycle mid-loop, can
	// only add to a reading.  So the budget is held by the best of a few.
	const rounds, attempts = 50, 5
	best := uint64(math.MaxUint64)
	for a := 0; a < attempts && best > 1024; a++ {
		OK(w, v) // size the pooled buffers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			OK(w, v)
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/rounds)
	}
	// What remains (about 300 B) is encoding/json's own: the Encoder, and
	// the sorted keys of the map[string]any.
	if best > 1024 {
		t.Errorf("OK allocates %d B per 100-result response, budget 1024", best)
	}
}

// hostileStrings are what a tag, a document name or a text must survive on
// its way into a JSON string.
var hostileStrings = []string{
	"", "plain", `<i>&"quoted"\`, "line\u2028sep\u2029para", "\x00\x01\x1f\x7f", "tab\tnl\ncr\rbs\bff\f",
	"caf\u00e9 \u4e16\u754c \U0001f600", "bad\xff\xfe utf8 \xc3", "\xe2\x80", strings.Repeat("x", 200),
}

// rendered runs one hand-written response through a recorder.
func rendered(write func(b *okBuf, w http.ResponseWriter)) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	b := okBufs.Get().(*okBuf)
	write(b, rec)
	b.release()
	return rec
}

// TestRenderMatchesEncodingJSON holds the hand-written encoder to the
// encoder it replaces, on the wire structs both take.
func TestRenderMatchesEncodingJSON(t *testing.T) {
	var elems []Element
	for i, s := range hostileStrings {
		elems = append(elems, Element{Node: xmlgraph.NodeID(i * 1000003), Tag: s, Doc: hostileStrings[len(hostileStrings)-1-i], Text: s, Dist: int32(i) - 1})
	}
	scores := []float64{0, 1, 0.64, 1e-7, 1e21, 5e-324, math.Copysign(0, -1), 123456.789, 1e-6, 9.99e20}
	var matches []match
	var batchRes []BatchResult
	for i, sc := range scores {
		matches = append(matches, match{Element: elems[i%len(elems)], Score: sc, PathLen: int32(i % 3)})
		batchRes = append(batchRes, BatchResult{Element: elems[i%len(elems)], Score: sc, PathLen: int32(i % 3)})
	}
	cluster := map[string]any{"requestId": "r<1>", "shards": []any{map[string]any{"id": 1, "rpcs": []int{}}}, "root": map[string]any{}}
	replies := map[string]struct {
		r    Reply
		want map[string]any
	}{
		"node":          {Reply{Has: HasGeneration, Generation: 7}, map[string]any{"generation": uint64(7)}},
		"node ranked":   {Reply{Has: HasGeneration | HasTruncated, Generation: 1 << 40, Truncated: true}, map[string]any{"generation": uint64(1 << 40), "truncated": true}},
		"node traced":   {Reply{Has: HasGeneration, Trace: cluster}, map[string]any{"generation": uint64(0), "trace": cluster}},
		"router":        {Reply{Has: HasPartial | HasRounds, Rounds: 3}, map[string]any{"partial": false, "failedShards": []int(nil), "rounds": 3}},
		"router empty":  {Reply{Has: HasPartial, FailedShards: []int{}}, map[string]any{"partial": false, "failedShards": []int{}}},
		"router failed": {Reply{Has: HasPartial, Partial: true, FailedShards: []int{0, 2}, Trace: cluster}, map[string]any{"partial": true, "failedShards": []int{0, 2}, "trace": cluster}},
		"bare":          {Reply{}, map[string]any{}},
	}
	check := func(name string, want any, got *httptest.ResponseRecorder) {
		t.Helper()
		ref := httptest.NewRecorder()
		referenceOK(ref, want)
		if !bytes.Equal(got.Body.Bytes(), ref.Body.Bytes()) {
			t.Errorf("%s: body differs\n got %q\nwant %q", name, got.Body.Bytes(), ref.Body.Bytes())
		}
		if g, w := got.Header().Get("Content-Type"), ref.Header().Get("Content-Type"); g != w {
			t.Errorf("%s: Content-Type %q, want %q", name, g, w)
		}
	}
	with := func(base, extra map[string]any) map[string]any {
		out := map[string]any{}
		for k, v := range base {
			out[k] = v
		}
		for k, v := range extra {
			out[k] = v
		}
		return out
	}
	for name, rp := range replies {
		for _, n := range []int{0, 1, len(elems)} {
			for _, timedOut := range []bool{false, true} {
				rp, el := rp, elems[:n]
				check(fmt.Sprint(name, " descendants ", n), with(rp.want, map[string]any{"results": el, "count": n, "timedOut": timedOut}),
					rendered(func(b *okBuf, w http.ResponseWriter) {
						b.writeList(w, &rp.r, timedOut, n, func(e *encoder, i int) { e.element(&queryKeys, &el[i], 0, 0, plainElems) })
					}))
			}
		}
		for _, n := range []int{0, 1, len(matches)} {
			rp, ms := rp, matches[:n]
			check(fmt.Sprint(name, " ranked ", n), with(rp.want, map[string]any{"results": ms, "count": n, "timedOut": false}),
				rendered(func(b *okBuf, w http.ResponseWriter) {
					b.writeList(w, &rp.r, false, n, func(e *encoder, i int) {
						e.element(&queryKeys, &ms[i].Element, ms[i].Score, ms[i].PathLen, rankedElems)
					})
				}))
		}
		rp := rp
		check(name+" connected", with(rp.want, map[string]any{"connected": true, "dist": int32(4), "timedOut": false}),
			rendered(func(b *okBuf, w http.ResponseWriter) { b.writeConnected(w, &rp.r, false, true, 4) }))
		check(name+" unconnected", with(rp.want, map[string]any{"connected": false, "timedOut": true}),
			rendered(func(b *okBuf, w http.ResponseWriter) { b.writeConnected(w, &rp.r, true, false, 0) }))
	}
	for _, failed := range [][]int{nil, {}, {1}, {0, 3}} {
		resp := &BatchResponse{
			Results: []BatchItem{
				{Status: BatchOK, Count: len(batchRes), Results: batchRes, CacheHit: true},
				{Status: BatchOK, Count: 0, Results: []BatchResult{}, Truncated: true},
				{Status: BatchOK, Count: 0},
				{Status: BatchError, Error: `query: "<&>" \ ` + hostileStrings[7]},
				{Status: BatchSkipped, Error: "batch deadline expired"},
			},
			Completed: 4, Partial: len(failed) > 0, TimedOut: len(failed) > 1, Generation: uint64(len(failed)), FailedShards: failed,
		}
		check(fmt.Sprint("batch ", failed), resp, rendered(func(b *okBuf, w http.ResponseWriter) { b.writeBatch(w, resp) }))
	}
	// A score with no JSON form fails the response as encoding/json does:
	// headers, no body.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ms := []match{{Element: elems[1], Score: bad}}
		check(fmt.Sprint("score ", bad), map[string]any{"results": ms},
			rendered(func(b *okBuf, w http.ResponseWriter) {
				b.writeList(w, &Reply{}, false, 1, func(e *encoder, i int) { e.element(&queryKeys, &ms[i].Element, ms[i].Score, 0, rankedElems) })
			}))
	}
}
