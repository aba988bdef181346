package front

// Identity first: every body render.go writes equals, byte for byte, what
// the frozen reference (reference_test.go) hands to encoding/json — on
// collections whose tags, document names and texts are as hostile to a JSON
// string as they come, and on the benchmark's corpus.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/dblp"
	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// Byte escapes, so this file stays ASCII: LINE and PARAGRAPH SEPARATOR,
// NO-BREAK SPACE, IDEOGRAPHIC SPACE, NEXT LINE; runes of 2, 3 and 4 bytes.
const (
	lineSep, paraSep, nbsp, ideoSpace, nextLine = "\xe2\x80\xa8", "\xe2\x80\xa9", "\xc2\xa0", "\xe3\x80\x80", "\xc2\x85"

	rune2, rune3, rune4 = "\xc3\xa9", "\xe4\xb8\x96", "\xf0\x9f\x98\x80"
)

// hostileNames are what a tag or a document name must survive on its way
// into a JSON string.
var hostileNames = []string{
	"plain", "", `<i>&"quoted"\`, "line" + lineSep + "sep" + paraSep + "para", "\x00\x01\x1f\x7f", "tab\tnl\ncr\rbs\bff\f",
	"caf" + rune2 + " " + rune3 + " " + rune4, "bad\xff\xfe utf8 \xc3", "\xe2\x80", strings.Repeat("x", 200),
}

// hostileTexts are those and what only a snippet has to get right: texts
// around the 80-byte limit, nothing but whitespace, every separator
// strings.Fields knows, runes of every width across the cut, invalid UTF-8
// in a text that is cut.
var hostileTexts = func() []string {
	texts := append([]string(nil), hostileNames...)
	for c := 0; c < 0x20; c++ {
		texts = append(texts, "ctl"+string(rune(c))+"x")
	}
	for _, n := range []int{79, 80, 81} {
		texts = append(texts, strings.Repeat("a", n), strings.Repeat("word ", n/5)+strings.Repeat("z", n%5),
			"  "+strings.Repeat("b", n)+"\n", strings.Repeat("c", n-1)+"  d")
	}
	texts = append(texts, " \t\n\v\f\r ", nbsp+ideoSpace+lineSep, "a\tb\nc"+nbsp+"d"+ideoSpace+"e"+lineSep+"f"+paraSep+"g"+nextLine+"h\vi\fj\rk",
		"\xff\xfe junk first, then a long valid tail "+strings.Repeat("tail ", 20))
	for _, r := range []string{rune2, rune3, rune4} {
		for off := 75; off <= 79; off++ {
			texts = append(texts, strings.Repeat("x", off)+r+strings.Repeat("y", 10), strings.Repeat("x", off)+r)
		}
	}
	return texts
}()

// plainTexts are texts that go on the wire as they are, up to the edges of
// that rule: none, single spaces, snippetMax bytes, the bytes jsonSafe lets
// through.
var plainTexts = []string{
	"", "plain", "two words", strings.Repeat("word ", 15) + "wordz", strings.Repeat("a", snippetMax),
	"!#$%'()*+,-./09:;=?@AZ[]^_`az{|}~\x7f",
}

// hostile rebuilds c tree for tree with every tag, text and document name
// replaced by a hostile one — except in every fourth document, which keeps
// c's names (all plain) and takes plain texts, so that elements written as
// they are sit among escaped ones.
func hostile(c *xmlgraph.Collection, rng *rand.Rand) *xmlgraph.Collection {
	out := xmlgraph.NewCollection()
	for d := 0; d < c.NumDocs(); d++ {
		plain := d%4 == 3
		name := fmt.Sprint(hostileNames[rng.Intn(len(hostileNames))], d)
		if plain {
			name = c.Doc(xmlgraph.DocID(d)).Name
		}
		b := out.NewDocument(name)
		var walk func(n xmlgraph.NodeID)
		walk = func(n xmlgraph.NodeID) {
			if plain {
				b.Enter(c.Tag(n), plainTexts[rng.Intn(len(plainTexts))])
			} else {
				b.Enter(hostileNames[rng.Intn(len(hostileNames))], hostileTexts[rng.Intn(len(hostileTexts))])
			}
			c.EachChild(n, walk)
			b.Leave()
		}
		walk(c.Doc(xmlgraph.DocID(d)).Root)
		b.Close()
	}
	out.Freeze()
	return out
}

// renderCollections are the three testutil families made hostile and the
// benchmark's 6210-document corpus.
var renderCollections = sync.OnceValue(func() map[string]*xmlgraph.Collection {
	colls := map[string]*xmlgraph.Collection{"dblp": dblp.Generate(dblp.DefaultParams()).BuildGraph()}
	for i, fam := range testutil.Families() {
		colls[string(fam)] = hostile(testutil.Generate(fam, int64(i+1), 12, 40, 30), rand.New(rand.NewSource(int64(i+1))))
	}
	return colls
})

// scoreTable is every float form a score can take on the wire.
var scoreTable = []float64{0, 1, 0.64, 1e-7, 1e21, 5e-324, math.Copysign(0, -1), 123456.789, 1e-6, 9.99e20, -2.5e-9, math.MaxFloat64}

// sampleHits draws n hits over c; ranked ones take their scores from
// scoreTable.
func sampleHits(c *xmlgraph.Collection, rng *rand.Rand, n int, ranked bool) []hit {
	hits := make([]hit, n)
	for i := range hits {
		hits[i] = hit{node: xmlgraph.NodeID(rng.Intn(c.NumNodes())), dist: int32(rng.Intn(4))}
		if ranked {
			hits[i].score = scoreTable[rng.Intn(len(scoreTable))]
		}
	}
	return hits
}

var (
	nodeTrace = obs.Summary{
		Elapsed: 1234 * time.Microsecond, Generation: 3, Pops: 7, Entries: 9, Results: 4,
		Metas:  []obs.MetaVisit{{Meta: 2, Strategy: "ppo<&>", Entries: 5, FirstDist: 1, Probe: time.Microsecond}},
		Events: []obs.Event{{T: time.Microsecond, Kind: obs.EvPop, Meta: 2, Strategy: "hopi", Node: 17, Dist: 1}}, NumEvents: 1,
	}
	emptyNodeTrace = obs.Summary{Metas: []obs.MetaVisit{}}
	clusterTrace   = &obs.ClusterTrace{
		RequestID: "0000002a", Elapsed: time.Millisecond, Gathers: 1, Rounds: 2, Fanouts: 3, Partial: true, FailedShards: []int{1},
		Shards: []obs.ShardTraceSummary{{Shard: 0, RPCs: 2, RPCTime: time.Millisecond}},
		Root: &obs.Span{Name: "descendants", Attrs: map[string]int64{"k": 100, "anchored": 1},
			Children: []*obs.Span{{Name: "gather", Note: "round 1 <1>"}, {Name: "gather"}}},
	}
)

// replyShapes are what the two tiers' Finish hooks leave in a Reply.
var replyShapes = map[string]Reply{
	"node":                {Has: HasGeneration, Generation: 7},
	"node ranked":         {Has: HasGeneration | HasTruncated, Generation: 1 << 40, Truncated: true},
	"node traced":         {Has: HasGeneration | HasTruncated, Generation: 2, Trace: nodeTrace},
	"node empty trace":    {Has: HasGeneration, Trace: emptyNodeTrace},
	"router":              {Has: HasPartial | HasRounds, Rounds: 3},
	"router empty failed": {Has: HasPartial, FailedShards: []int{}},
	"router failed":       {Has: HasPartial | HasRounds, Partial: true, FailedShards: []int{0, 2}},
	"router traced":       {Has: HasPartial, Partial: true, FailedShards: []int{1}, Trace: clusterTrace},
	"bare":                {},
}

// A response shape renders itself both ways: by hand from a pooled okBuf,
// and as the value the frozen handlers gave encoding/json.
type shape struct {
	name      string
	hits      []hit // the result elements it writes
	render    func(f *Front, w http.ResponseWriter, b *okBuf)
	reference func(c *xmlgraph.Collection) any
}

// listShape is a /v1/descendants or (ranked) /v1/query answer.
func listShape(name string, hits []hit, ranked, timedOut bool, reply Reply) shape {
	return shape{
		name: name,
		hits: hits,
		render: func(f *Front, w http.ResponseWriter, b *okBuf) {
			b.hits, b.reply = append(b.hits, hits...), reply
			f.writeList(w, b, ranked, timedOut)
		},
		reference: func(c *xmlgraph.Collection) any { return referenceList(c, hits, ranked, timedOut, &reply) },
	}
}

// batchShape is a /v1/batch answer.
func batchShape(name string, items []batchItem, hits []hit, completed int, partial, timedOut bool, reply Reply) shape {
	return shape{
		name: name,
		hits: hits,
		render: func(f *Front, w http.ResponseWriter, b *okBuf) {
			b.hits, b.items, b.reply = append(b.hits, hits...), append(b.items, items...), reply
			f.writeBatch(w, b, completed, partial, timedOut)
		},
		reference: func(c *xmlgraph.Collection) any {
			return referenceBatch(c, items, hits, completed, partial, timedOut, &reply)
		},
	}
}

// renderShapes are the responses the four public handlers can produce over
// c: descendants and ranked lists of k = 0, 1 and 100 and both connected
// answers under every reply shape, and batches of every item kind.
func renderShapes(c *xmlgraph.Collection, seed int64) []shape {
	rng := rand.New(rand.NewSource(seed))
	var shapes []shape
	for name, reply := range replyShapes {
		for _, k := range []int{0, 1, 100} {
			for _, ranked := range []bool{false, true} {
				shapes = append(shapes, listShape(fmt.Sprintf("%s/list ranked=%v k=%d", name, ranked, k),
					sampleHits(c, rng, k, ranked), ranked, k == 1, reply))
			}
		}
		for _, ok := range []bool{false, true} {
			shapes = append(shapes, shape{
				name: fmt.Sprintf("%s/connected=%v", name, ok),
				render: func(f *Front, w http.ResponseWriter, b *okBuf) {
					b.reply = reply
					f.writeConnected(w, b, ok, 5, !ok)
				},
				reference: func(*xmlgraph.Collection) any { return referenceConnected(ok, 5, !ok, &reply) },
			})
		}
	}
	for _, failed := range [][]int{nil, {}, {1}, {0, 3}} {
		var hits []hit
		var items []batchItem
		add := func(it batchItem, n int) {
			it.off, it.n = len(hits), n
			hits = append(hits, sampleHits(c, rng, n, it.ranked)...)
			items = append(items, it)
		}
		add(batchItem{status: BatchOK, cacheHit: true}, 100)
		add(batchItem{status: BatchOK, ranked: true}, 100)
		add(batchItem{status: BatchOK, truncated: true}, 0)
		add(batchItem{status: BatchOK, ranked: true, truncated: true, cacheHit: true}, 1)
		add(batchItem{status: BatchError, err: `query: "<&>" \ ` + hostileNames[7]}, 0)
		add(batchItem{status: BatchSkipped, err: "batch deadline expired"}, 0)
		add(batchItem{status: BatchOK}, 1)
		shapes = append(shapes, batchShape(fmt.Sprint("batch failed=", failed), items, hits, len(items)-1,
			len(failed) > 0, len(failed) > 1, Reply{Generation: uint64(len(failed)), FailedShards: failed}))
	}
	return shapes
}

// renderTo runs one shape through the hand-written encoder.
func renderTo(f *Front, s shape, w http.ResponseWriter) {
	b := okBufs.Get().(*okBuf)
	s.render(f, w, b)
	b.release()
}

func renderBody(f *Front, s shape) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	renderTo(f, s, rec)
	return rec
}

func referenceBody(c *xmlgraph.Collection, s shape) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	referenceOK(rec, s.reference(c))
	return rec
}

// TestRenderMatchesEncodingJSON also counts the elements written as they
// are and those escaped, so that both ways are held to the reference: the
// hostile collections take both, the benchmark's corpus all but a few
// elements verbatim.
func TestRenderMatchesEncodingJSON(t *testing.T) {
	for name, c := range renderCollections() {
		f := newFront(c)
		var verbatim, escaped int
		for _, s := range renderShapes(c, 1) {
			for _, h := range s.hits {
				if f.verbatim.has(h.node) {
					verbatim++
				} else {
					escaped++
				}
			}
			// Twice: the second rendering reuses pooled memory that held
			// another answer.
			for round := 0; round < 2; round++ {
				got, want := renderBody(f, s), referenceBody(c, s)
				if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Fatalf("%s %s: body differs\n got %q\nwant %q", name, s.name, got.Body.Bytes(), want.Body.Bytes())
				}
				if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
					t.Errorf("%s %s: Content-Type %q, want %q", name, s.name, g, w)
				}
			}
		}
		t.Logf("%s: %d elements verbatim, %d escaped", name, verbatim, escaped)
		if name == "dblp" {
			if verbatim < 99*(verbatim+escaped)/100 {
				t.Errorf("dblp: %d of %d elements verbatim, want at least 99 %%", verbatim, verbatim+escaped)
			}
		} else if verbatim == 0 || escaped == 0 {
			t.Errorf("%s: %d elements verbatim and %d escaped, want both ways taken", name, verbatim, escaped)
		}
	}
}

// TestRenderScoreForms: every float form of a score is written as
// encoding/json writes it, and a score with no JSON form fails the response
// the same way — headers, no body.
func TestRenderScoreForms(t *testing.T) {
	c := renderCollections()["trees"]
	f := newFront(c)
	for _, score := range append([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}, scoreTable...) {
		hits := []hit{{node: 1, dist: 2, score: score}}
		items := []batchItem{{status: BatchOK, n: 1, ranked: true}}
		for _, s := range []shape{
			listShape("list", hits, true, false, Reply{}),
			batchShape("batch", items, hits, 1, false, false, Reply{}),
		} {
			got, want := renderBody(f, s), referenceBody(c, s)
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("score %v: body differs\n got %q\nwant %q", score, got.Body.Bytes(), want.Body.Bytes())
			}
			if bad := math.IsNaN(score) || math.IsInf(score, 0); bad != (got.Body.Len() == 0) {
				t.Errorf("score %v: %d body bytes", score, got.Body.Len())
			}
		}
	}
}

// intForms are the int32 values on either side of every digit-count
// boundary, both signs, and the two ends of the range.
var intForms = func() []int32 {
	v := []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32 - 1, math.MaxInt32}
	for p := int64(1); p <= 1e9; p *= 10 {
		for _, n := range []int64{p - 1, p, p + 1} {
			v = append(v, int32(n), int32(-n))
		}
	}
	return v
}()

// TestRenderIntegerForms: appendInt writes what strconv.AppendInt writes,
// on every digit-count boundary and over a seeded sweep, into a buffer with
// room and into one without; and elements whose node IDs and distances sit
// on those boundaries are written as encoding/json writes them, ranked and
// unranked, in a single-query response and in a batch.
func TestRenderIntegerForms(t *testing.T) {
	check := func(v int32) {
		want := strconv.AppendInt([]byte("x"), int64(v), 10)
		for _, dst := range [][]byte{[]byte("x"), append(make([]byte, 0, 16), 'x')} {
			if got := appendInt(dst, v); !bytes.Equal(got, want) {
				t.Fatalf("appendInt(%d) = %q, want %q", v, got, want)
			}
		}
	}
	for _, v := range intForms {
		check(v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<18; i++ {
		check(int32(rng.Uint32()))                 // mostly ten digits
		check(int32(rng.Uint32() >> rng.Intn(32))) // every length
	}

	c := renderCollections()["dblp"]
	f := newFront(c)
	nodes := []xmlgraph.NodeID{xmlgraph.NodeID(c.NumNodes() - 1)}
	for _, v := range intForms {
		if v >= 0 && int(v) < c.NumNodes() {
			nodes = append(nodes, xmlgraph.NodeID(v))
		}
	}
	var hits []hit
	for i, n := range nodes {
		for j, d := range intForms {
			hits = append(hits, hit{node: n, dist: d, score: scoreTable[(i+j)%len(scoreTable)]})
		}
	}
	items := []batchItem{{status: BatchOK, n: len(hits)}, {status: BatchOK, off: len(hits), n: len(hits), ranked: true}}
	both := append(append([]hit(nil), hits...), hits...)
	for _, s := range []shape{
		listShape("list", hits, false, false, Reply{}),
		listShape("ranked list", hits, true, false, Reply{}),
		batchShape("batch", items, both, len(items), false, false, Reply{}),
	} {
		got, want := renderBody(f, s), referenceBody(c, s)
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: body differs\n got %q\nwant %q", s.name, got.Body.Bytes(), want.Body.Bytes())
		}
	}
}

// TestRenderDecodesIntoWireStructs: the exported wire structs are the
// schema — every rendered body decodes into them with the values that went
// in.
func TestRenderDecodesIntoWireStructs(t *testing.T) {
	for name, c := range renderCollections() {
		f := newFront(c)
		for _, s := range renderShapes(c, 2) {
			body := renderBody(f, s).Body.Bytes()
			switch want := s.reference(c).(type) {
			case *BatchResponse:
				var got BatchResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatalf("%s %s: %v", name, s.name, err)
				}
				// omitempty drops an empty list; validWire gives decoded
				// strings the replacement runes the encoder put on the wire.
				for i := range want.Results {
					if len(want.Results[i].Results) == 0 {
						want.Results[i].Results = nil
					}
					want.Results[i].Error = validWire(want.Results[i].Error)
					for j := range want.Results[i].Results {
						validElement(&want.Results[i].Results[j].Element)
					}
				}
				if len(want.FailedShards) == 0 {
					want.FailedShards = nil
				}
				if !reflect.DeepEqual(&got, want) {
					t.Errorf("%s %s: decoded %+v, want %+v", name, s.name, got, *want)
				}
			case map[string]any:
				var got struct {
					Results []struct {
						Element
						Score   float64 `json:"score"`
						PathLen int32   `json:"pathLen"`
					} `json:"results"`
					Count     *int   `json:"count"`
					Connected *bool  `json:"connected"`
					Dist      *int32 `json:"dist"`
					TimedOut  bool   `json:"timedOut"`
				}
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatalf("%s %s: %v", name, s.name, err)
				}
				if got.TimedOut != want["timedOut"] {
					t.Errorf("%s %s: timedOut %v", name, s.name, got.TimedOut)
				}
				if ok, connected := want["connected"]; connected {
					if got.Connected == nil || *got.Connected != ok || (got.Dist != nil) != ok.(bool) || ok.(bool) && *got.Dist != want["dist"] {
						t.Errorf("%s %s: connected decoded wrong from %s", name, s.name, body)
					}
					continue
				}
				if got.Count == nil || *got.Count != want["count"] || len(got.Results) != *got.Count {
					t.Fatalf("%s %s: count %v with %d results, want %v", name, s.name, got.Count, len(got.Results), want["count"])
				}
				for i, r := range got.Results {
					var el Element
					var score float64
					var pathLen int32
					switch list := want["results"].(type) {
					case []Element:
						el = list[i]
					case []match:
						el, score, pathLen = list[i].Element, list[i].Score, list[i].PathLen
					}
					validElement(&el)
					if r.Element != el || r.Score != score || r.PathLen != pathLen {
						t.Errorf("%s %s: result %d decoded %+v, want %+v score %v pathLen %d", name, s.name, i, r, el, score, pathLen)
					}
				}
			}
		}
	}
}

// validWire is s as a JSON decoder returns it after the encoder replaced
// each byte of invalid UTF-8 by U+FFFD.
func validWire(s string) string { return string([]rune(s)) }

func validElement(el *Element) {
	el.Tag, el.Doc, el.Text = validWire(el.Tag), validWire(el.Doc), validWire(el.Text)
}

// TestRenderConcurrent: goroutines rendering mixed shapes through the
// shared pools each get the body of a single-threaded rendering.
func TestRenderConcurrent(t *testing.T) {
	c := renderCollections()["linked"]
	f := newFront(c)
	shapes := renderShapes(c, 3)
	want := make([][]byte, len(shapes))
	for i, s := range shapes {
		want[i] = renderBody(f, s).Body.Bytes()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 200; n++ {
				i := rng.Intn(len(shapes))
				if got := renderBody(f, shapes[i]).Body.Bytes(); !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d: %s differs from its single-threaded rendering", g, shapes[i].name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSnippetCutsOnRuneBoundary: a cut that would split a rune backs off to
// the rune's first byte, so valid text never puts U+FFFD on the wire; text
// that is invalid already still does, and nothing panics.
func TestSnippetCutsOnRuneBoundary(t *testing.T) {
	var buf snippetBuf
	for _, r := range []string{rune2, rune3, rune4} {
		for off := 75; off <= 79; off++ {
			text := strings.Repeat("x", off) + r + strings.Repeat("y", 10)
			got := string(makeSnippet(&buf, text))
			keep := snippetCut
			if off < snippetCut && off+len(r) > snippetCut {
				keep = off // the rune straddles the cut and goes whole
			}
			if want := text[:keep] + "..."; got != want {
				t.Errorf("%d-byte rune at %d: snippet %q, want %q", len(r), off, got, want)
			}
			if !utf8.ValidString(got) || len(got) > snippetCut+3 {
				t.Errorf("%d-byte rune at %d: snippet %q is invalid or longer than %d bytes", len(r), off, got, snippetCut+3)
			}
			if escaped := string(appendEscaped(nil, got)); strings.Contains(escaped, `\ufffd`) {
				t.Errorf("%d-byte rune at %d: %s on the wire", len(r), off, escaped)
			}
		}
	}
	// Invalid before it is cut: each bad byte is still one U+FFFD.
	for _, text := range []string{
		strings.Repeat("x", 76) + "\xff\xfe" + strings.Repeat("y", 10),
		strings.Repeat("\x80", 100),
		strings.Repeat("x", 75) + "\xf0\x9f" + "z" + strings.Repeat("y", 10),
		strings.Repeat("x", 76) + "\xe4" + strings.Repeat("\xe4", 10),
		strings.Repeat("\xf0", 90),
	} {
		got := string(makeSnippet(&buf, text))
		if old := referenceSnippet(text); got != old {
			t.Errorf("invalid text %q: snippet %q, the frozen one %q", text, got, old)
		}
		if escaped := string(appendEscaped(nil, got)); !strings.Contains(escaped, `\ufffd`) {
			t.Errorf("invalid text %q: %s on the wire without U+FFFD", text, escaped)
		}
	}
}

// TestRenderScratchBounded: a response above maxPooledHits hits must not
// leave its hit list in the pool, as one above maxPooledOK bytes must not
// leave its buffers.
func TestRenderScratchBounded(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	for i := 0; i < 4; i++ {
		b := okBufs.Get().(*okBuf)
		b.hits = append(b.hits, make([]hit, maxPooledHits+1)...)
		b.release()
	}
	for i := 0; i < 64; i++ {
		if b := okBufs.Get().(*okBuf); cap(b.hits) > maxPooledHits || len(b.hits) != 0 || len(b.items) != 0 || b.reply.Has != 0 {
			t.Fatalf("the pool holds a scratch of %d hits (cap %d), %d items", len(b.hits), cap(b.hits), len(b.items))
		}
	}
}

func FuzzRenderString(f *testing.F) {
	for _, s := range hostileTexts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var e encoder
		e.string(s)
		if !bytes.Equal(e.buf, want) {
			t.Errorf("string %q: rendered %s, json.Marshal %s", s, e.buf, want)
		}
		if got := appendEscaped(nil, []byte(s)); !bytes.Equal(got, want[1:len(want)-1]) {
			t.Errorf("bytes %q: rendered %s, json.Marshal %s", s, got, want)
		}
	})
}

func FuzzSnippet(f *testing.F) {
	for _, s := range hostileTexts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var buf snippetBuf
		got, old := string(makeSnippet(&buf, s)), referenceSnippet(s)
		if utf8.ValidString(s) {
			if want := ruleSnippet(s); got != want {
				t.Fatalf("text %q: snippet %q, want %q (frozen %q)", s, got, want, old)
			}
			if !utf8.ValidString(got) {
				t.Fatalf("text %q: valid text, invalid snippet %q", s, got)
			}
			return
		}
		// Invalid text: the frozen snippet, or that less the bytes before the
		// cut that begin a rune the cut splits.
		if got != old && !(strings.HasSuffix(got, "...") && len(old)-len(got) < utf8.UTFMax &&
			strings.HasPrefix(old, strings.TrimSuffix(got, "..."))) {
			t.Fatalf("text %q: snippet %q, frozen %q", s, got, old)
		}
	})
}

// FuzzVerbatim: what the verbatim bit lets through is left as it is by the
// snippet and by the escaping it skips.
func FuzzVerbatim(f *testing.F) {
	// Beside the hostile strings, texts that miss the rule by one byte.
	nearMisses := []string{" lead", "trail ", "two  spaces", "tab\tin", strings.Repeat("a", snippetMax+1)}
	for _, seeds := range [][]string{hostileTexts, hostileNames, nearMisses} {
		for _, s := range seeds {
			f.Add(s)
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		escaped := string(appendEscaped(nil, s))
		if plainName(s) && escaped != s {
			t.Errorf("plain name %q: escaped %q", s, escaped)
		}
		if plainText(s) {
			var buf snippetBuf
			if snippet := string(makeSnippet(&buf, s)); snippet != s || escaped != s {
				t.Errorf("plain text %q: snippet %q, escaped %q", s, snippet, escaped)
			}
		}
	})
}
