package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"repro/internal/dblp"
	"repro/internal/shard"
	"repro/internal/xmlgraph"
)

// corpus is the fixed data set every workload serves: the synthetic DBLP
// extract at the paper's scale.  Only the operation lists depend on the
// seed, so index size and build work are the same in every run.
type corpus struct {
	pubs *dblp.Collection
	coll *xmlgraph.Collection
}

const (
	fullDocs  = 6210 // dblp.DefaultParams: the paper's collection
	smokeDocs = 200
)

func newCorpus(docs int) *corpus {
	pubs := dblp.Generate(dblp.Scaled(docs))
	return &corpus{pubs: pubs, coll: pubs.BuildGraph()}
}

// root is the root element of publication i (documents are appended in
// publication order).
func (c *corpus) root(i int) xmlgraph.NodeID { return c.coll.Doc(xmlgraph.DocID(i)).Root }

type opClass uint8

const (
	classDesc      opClass = iota // GET /v1/descendants
	classTraced                   // GET /v1/descendants?trace=1
	classConnected                // GET /v1/connected
	classRanked                   // GET /v1/query
	classBatch                    // POST /v1/batch
	classReopen                   // open snapshot, install, then the items
	numClasses
)

var classNames = [numClasses]string{"desc", "traced", "connected", "ranked", "batch", "reopen"}

// descLimit is the ?k= of every descendants request and rankedLimit that
// of every ranked query.
const (
	descLimit   = 100
	rankedLimit = 10
)

// op is one client-visible operation: what to send, and (after the
// verification pass) what a correct answer starts and ends with.
type op struct {
	class opClass
	start xmlgraph.NodeID // desc, traced, connected (from)
	to    xmlgraph.NodeID // connected
	tag   string          // desc, traced; "" is the wildcard
	expr  string          // ranked
	items []op            // batch: its queries; reopen: the requests after Install

	// target and body are the HTTP request derived from the fields above.
	target string
	body   []byte
	// want, head and tail are filled by the verification pass: the counts
	// and flags of the verified answer, and the bytes it begins and ends
	// with, so a timed response is checked without decoding it.
	want       string
	head, tail []byte
}

// finish derives the HTTP request of the op and of its items.
func (o *op) finish() {
	for i := range o.items {
		o.items[i].finish()
	}
	switch o.class {
	case classDesc:
		o.target = fmt.Sprintf("/v1/descendants?start=%d&tag=%s&k=%d", o.start, o.tag, descLimit)
	case classTraced:
		o.target = fmt.Sprintf("/v1/descendants?start=%d&tag=%s&k=%d&trace=1", o.start, o.tag, descLimit)
	case classConnected:
		o.target = fmt.Sprintf("/v1/connected?from=%d&to=%d", o.start, o.to)
	case classRanked:
		o.target = fmt.Sprintf("/v1/query?q=%s&k=%d", url.QueryEscape(o.expr), rankedLimit)
	case classBatch:
		o.target = "/v1/batch"
		req := shard.BatchRequest{}
		for _, it := range o.items {
			if it.class == classRanked {
				req.Queries = append(req.Queries, shard.BatchQuery{Q: it.expr, K: rankedLimit})
			} else {
				req.Queries = append(req.Queries, shard.BatchQuery{Start: fmt.Sprint(it.start), Tag: it.tag, K: descLimit})
			}
		}
		b, err := json.Marshal(req)
		if err != nil {
			panic(err) // a struct of strings and ints always marshals
		}
		o.body = b
	}
}

// renderOps writes the op list in a canonical text form, one request per
// line; equal seeds must give equal bytes.
func renderOps(ops []op) []byte {
	var b bytes.Buffer
	var walk func(indent string, ops []op)
	walk = func(indent string, ops []op) {
		for _, o := range ops {
			fmt.Fprintf(&b, "%s%s %s %s\n", indent, classNames[o.class], o.target, o.body)
			if o.class == classReopen {
				walk(indent+"  ", o.items)
			}
		}
	}
	walk("", ops)
	return b.Bytes()
}

// descTags are the target tags of the descendants classes on the warm and
// sharded workloads; "" is the wildcard.  Every start has a hundred of each
// within a few documents, so the evaluator stops early and most of a request
// is the HTTP front rendering the results.
var descTags = []string{"article", "author", "title", "cite", ""}

// coldTags are the target tags of desc-cold: the rarest record type of the
// collection (journal articles, a third of the publications) and two DBLP
// record types this extract has none of.  The evaluator has to cross a few
// hundred documents for a hundred results, or all a start reaches for none,
// and there is little to render.
var coldTags = []string{"article", "phdthesis", "book"}

// stratified picks one index per stratum from n ≤ size equal strata of
// [0, size):
// a uniform sample whose spread over the range — and with it the total
// work of the op list — changes little from seed to seed.
func stratified(rng *rand.Rand, size, n int) []int {
	out := make([]int, n)
	for i := range out {
		lo, hi := i*size/n, (i+1)*size/n
		out[i] = lo + rng.Intn(hi-lo)
	}
	return out
}

// element picks a start in document i: its root for even strata, a
// uniformly chosen inner element for odd ones.
func (c *corpus) element(rng *rand.Rand, stratum, i int) xmlgraph.NodeID {
	d := c.coll.Doc(xmlgraph.DocID(i))
	if stratum%2 == 0 || d.Size() < 2 {
		return d.Root
	}
	return d.Root + 1 + xmlgraph.NodeID(rng.Intn(d.Size()-1))
}

// scale shrinks an op count for the smoke corpus.
func scale(n int, smoke bool) int {
	if smoke {
		return max(n/20, 4)
	}
	return n
}

// genOps builds one lap of the workload's operations from the seed.  The
// timed phase replays this list lap after lap, so every lap — and every run
// with the same seed — does the same work.
//
// Across seeds the lists are samples of the same population taken so that
// their total work differs little: shares of classes, tags and query shapes
// are fixed and dealt round-robin, documents are drawn one per stratum of
// publication order (which decides how much a start reaches), and the seed
// picks within strata and the order.  Ten seeds then agree to a few percent
// on every metric instead of spreading by a tenth.
func genOps(workload string, c *corpus, seed int64, smoke bool) []op {
	rng := rand.New(rand.NewSource(seed))
	n := len(c.pubs.Pubs)
	var ops []op
	switch workload {
	case "desc-cold":
		// Every start with every tag.  The starts are roots of the newer half
		// of the publications: citations point back in time, so these reach
		// hundreds of documents and the evaluator has work to do.
		for _, d := range stratified(rng, n/2, scale(1500, smoke)) {
			ops = append(ops, descOps(c.root(n/2+d), coldTags, 0, len(coldTags))...)
		}
	case "mixed-warm":
		ops = c.mixedOps(rng, smoke)
	case "sharded":
		// Many starts with two tags each: a start's reach decides the cost
		// of all its queries, so starts are what has to be sampled densely.
		for s, d := range c.citationRich(rng, scale(250, smoke)) {
			ops = append(ops, descOps(c.root(d), descTags, s, 2)...)
		}
	case "reopen-mapped":
		for i := 0; i < 4; i++ {
			o := op{class: classReopen}
			for s, d := range stratified(rng, n, 50) {
				o.items = append(o.items, descOps(c.element(rng, s, d), descTags, s+i, 1)...)
			}
			ops = append(ops, o)
		}
	default:
		panic("unknown workload " + workload)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].finish()
	}
	return ops
}

// descOps is the descendants requests from start for k of the tags, dealt
// in rotation by turn.
func descOps(start xmlgraph.NodeID, tags []string, turn, k int) []op {
	ops := make([]op, k)
	for i := range ops {
		ops[i] = op{class: classDesc, start: start, tag: tags[(turn*k+i)%len(tags)]}
	}
	return ops
}

// citationRich picks n publications from the quarter with the most
// citations, spread evenly over publication order: their descendants cross
// many links, so a sharded gather takes several rounds.
func (c *corpus) citationRich(rng *rand.Rand, n int) []int {
	idx := make([]int, len(c.pubs.Pubs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return len(c.pubs.Pubs[idx[a]].Cites) > len(c.pubs.Pubs[idx[b]].Cites)
	})
	rich := idx[:max(len(idx)/4, 1)]
	sort.Ints(rich)
	out := make([]int, 0, n)
	for _, i := range stratified(rng, len(rich), n) {
		out = append(out, rich[i])
	}
	return out
}

// mixedOps is the mixed-warm lap: by count 40 % cache-hit descendants
// (Zipf over 512 keys), 15 % traced descendants, 15 % connection tests,
// 20 % ranked top-10 queries and 10 % batches of 32 (30 cache-hit
// descendants and 2 ranked queries).  The hub publication is left out: one
// start that reaches most of the collection would make the mix bimodal.
func (c *corpus) mixedOps(rng *rand.Rand, smoke bool) []op {
	n := len(c.pubs.Pubs)
	root := func(i int) xmlgraph.NodeID {
		if i == c.pubs.HubIndex {
			i = (i + 1) % n
		}
		return c.root(i)
	}
	// Zipf keys, rank 0 the latest publication: the popular keys are the
	// ones with full answers, whichever seed picked them.
	var keys []op
	for s, d := range stratified(rng, n, scale(512, smoke)) {
		keys = append(keys, descOps(root(d), descTags, s, 1)...)
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
	hot := func() op { return keys[len(keys)-1-int(zipf.Uint64())] }
	// The traced keys are their own pool, so that a traced request meets a
	// warm cache like its neighbours and only the trace is extra.
	var traced []op
	for s, d := range stratified(rng, n, scale(256, smoke)) {
		o := descOps(root(d), descTags, s, 1)[0]
		o.class = classTraced
		traced = append(traced, o)
	}
	ranked := c.rankedShapes(rng)
	nextRanked := 0
	rankedOp := func() op { // shapes in rotation, the seed picks within the shape
		shape := ranked[nextRanked%len(ranked)]
		nextRanked++
		return shape[rng.Intn(len(shape))]
	}

	total := scale(2000, smoke)
	var ops []op
	for i := 0; i < total*40/100; i++ {
		ops = append(ops, hot())
	}
	for i := 0; i < total*15/100; i++ {
		ops = append(ops, traced[i%len(traced)])
	}
	for s, d := range stratified(rng, n, total*15/100) {
		ops = append(ops, op{class: classConnected, start: root(d), to: c.connectTarget(rng, s, d)})
	}
	for i := 0; i < total*20/100; i++ {
		ops = append(ops, rankedOp())
	}
	for i := 0; i < total*10/100; i++ {
		b := op{class: classBatch}
		for j := 0; j < 30; j++ {
			b.items = append(b.items, hot())
		}
		b.items = append(b.items, rankedOp(), rankedOp())
		ops = append(ops, b)
	}
	return ops
}

// connectTarget picks the far end of a connection test from publication i:
// two turns in three the root of a publication one to four citations away
// (connected), otherwise any publication's root (mostly not connected).
func (c *corpus) connectTarget(rng *rand.Rand, turn, i int) xmlgraph.NodeID {
	if turn%3 == 0 {
		return c.root(rng.Intn(len(c.pubs.Pubs)))
	}
	t := i
	for hops := 1 + turn%4; hops > 0 && len(c.pubs.Pubs[t].Cites) > 0; hops-- {
		cites := c.pubs.Pubs[t].Cites
		t = cites[rng.Intn(len(cites))]
	}
	return c.root(t)
}

// rankedShapes are the ranked path expressions the mix draws from, grouped
// by shape — title search, author search, citation chase from one cited
// key — with the vocabulary and keys of seeded publications.  Queries of
// one shape cost about the same.
func (c *corpus) rankedShapes(rng *rand.Rand) [][]op {
	shapes := make([][]op, 3)
	for _, i := range stratified(rng, len(c.pubs.Pubs), 24) {
		p := c.pubs.Pubs[i]
		words := strings.Fields(p.Title)
		last := strings.Fields(p.Authors[rng.Intn(len(p.Authors))])
		for s, expr := range []string{
			fmt.Sprintf(`//title[text~"%s"]`, words[rng.Intn(len(words))]),
			fmt.Sprintf(`//author[text~"%s"]`, last[len(last)-1]),
			fmt.Sprintf(`//cite[text="%s"]//author`, p.Key),
		} {
			shapes[s] = append(shapes[s], op{class: classRanked, expr: expr})
		}
	}
	return shapes
}
