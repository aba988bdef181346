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

// TestRenderWritesOnce: writeList, writeConnected and writeBatch each write
// a response in one Write, traced or not, as OK does.
func TestRenderWritesOnce(t *testing.T) {
	for _, name := range []string{"dblp", "linked"} {
		c := renderCollections()[name]
		f := newFront(c)
		shapes := renderShapes(c, 4)
		if name == "dblp" {
			shapes = append(shapes, benchShapes(c)...)
		}
		for _, s := range shapes {
			cw := &countingWriter{ResponseWriter: httptest.NewRecorder()}
			renderTo(f, s, cw)
			if cw.writes != 1 {
				t.Errorf("%s %s: %d writes, want 1", name, s.name, cw.writes)
			}
		}
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

// TestOKAllocBudget holds the hand-written path to its allocation floor on
// warm pooled memory: a 100-result response, a ranked top ten and the two
// batches of benchShapes allocate nothing but the Content-Type header value
// (http.Header.Set makes a one-element slice).  The encoder this replaced
// paid for an Encoder and the sorted keys of a map besides; referenceOK's
// indent buffer, regrown from nothing on every response, cost about 60 KB
// for the hundred.
func TestOKAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const budget = 16
	c := renderCollections()["dblp"]
	f := newFront(c)
	w := discardWriter{h: make(http.Header)}
	for _, s := range benchShapes(c) {
		// TotalAlloc is process-wide, and a collection empties the pool:
		// servers that earlier tests are still shutting down, or a GC cycle
		// mid-loop, can only add to a reading.  So the budget is held by the
		// best of a few.
		const rounds, attempts = 50, 5
		best := uint64(math.MaxUint64)
		for a := 0; a < attempts && best > budget; a++ {
			renderTo(f, s, w) // size the pooled memory
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				renderTo(f, s, w)
			}
			runtime.ReadMemStats(&after)
			best = min(best, (after.TotalAlloc-before.TotalAlloc)/rounds)
		}
		if best > budget {
			t.Errorf("%s allocates %d B per response, budget %d", s.name, best, budget)
		}
	}
}
