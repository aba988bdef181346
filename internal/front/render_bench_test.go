package front

import (
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"repro/internal/flix"
	"repro/internal/query"
	"repro/internal/xmlgraph"
)

// benchShapes are the responses mixed-warm is made of — a hundred
// descendants, a ranked top ten, a batch of 32 items of a hundred hits —
// drawn from the whole collection, and a batch of real answers, for
// BenchmarkRender and the allocation budget.
func benchShapes(c *xmlgraph.Collection) []shape {
	rng := rand.New(rand.NewSource(1))
	reply := Reply{Has: HasGeneration, Generation: 1}
	var hits []hit
	items := make([]batchItem, 32)
	for i := range items {
		items[i] = batchItem{status: BatchOK, off: len(hits), n: 100, cacheHit: true}
		hits = append(hits, sampleHits(c, rng, 100, false)...)
	}
	return []shape{
		listShape("descendants-100", sampleHits(c, rng, 100, false), false, false, reply),
		listShape("ranked-10", sampleHits(c, rng, 10, true), true, false, reply),
		batchShape("batch-32x100", items, hits, len(items), false, false, reply),
		hotBatch(reply),
	}
}

// hotTags are the target tags of mixed-warm's cache-hit descendants.
var hotTags = []string{"article", "author", "title", "cite", ""}

// hotIndex is the index mixed-warm serves over the benchmark's corpus.
var hotIndex = sync.OnceValue(func() *flix.Index {
	ix, err := flix.Build(renderCollections()["dblp"], flix.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return ix
})

// hotBatch is a batch as mixed-warm sends one, made of real answers over
// the benchmark's corpus: 30 descendants items of up to a hundred
// results from the roots of the latest publications, whose answers are
// full, and two ranked top-10 lists, a title word and an author's name
// from the generator's vocabulary.
// Real answers cluster where a start reaches; a sample of the whole
// collection misses the cache on every element.
func hotBatch(reply Reply) shape {
	ix := hotIndex()
	c := ix.Collection()
	var hits []hit
	var items []batchItem
	for j := 0; j < 30; j++ {
		it := batchItem{status: BatchOK, off: len(hits), cacheHit: true}
		root := c.Doc(xmlgraph.DocID(c.NumDocs() - 1 - 3*j)).Root
		ix.Descendants(root, hotTags[j%len(hotTags)], flix.Options{MaxResults: 100}, func(r flix.Result) bool {
			hits = append(hits, hit{node: r.Node, dist: r.Dist})
			return true
		})
		it.n = len(hits) - it.off
		items = append(items, it)
	}
	ev := &query.Evaluator{Index: ix}
	for _, expr := range []string{`//title[text~"indexing"]`, `//author[text~"Weikum"]`} {
		pq, err := query.Parse(expr)
		if err != nil {
			panic(err)
		}
		it := batchItem{status: BatchOK, off: len(hits), ranked: true}
		for _, m := range ev.EvaluateTopK(pq, 10) {
			hits = append(hits, hit{node: m.Node, dist: m.PathLen, score: m.Score})
		}
		it.n = len(hits) - it.off
		items = append(items, it)
	}
	return batchShape("batch-hot", items, hits, len(items), false, false, reply)
}

// BenchmarkRender times hits → wire bytes on the benchmark's corpus, and on
// a hostile collection a hundred elements that all take the escaping path;
// beside each shape what the frozen reference (wire structs, encoding/json,
// json.Indent) takes for the same bytes.
func BenchmarkRender(b *testing.B) {
	colls := renderCollections()
	dblp, hostile := newFront(colls["dblp"]), newFront(colls["linked"])
	var escaped []hit
	for _, h := range sampleHits(hostile.coll, rand.New(rand.NewSource(1)), 1000, false) {
		if !hostile.verbatim.has(h.node) && len(escaped) < 100 {
			escaped = append(escaped, h)
		}
	}
	w := discardWriter{h: make(http.Header)}
	for _, g := range []struct {
		f      *Front
		shapes []shape
	}{
		{dblp, benchShapes(dblp.coll)},
		{hostile, []shape{listShape("hostile-100", escaped, false, false, Reply{Has: HasGeneration, Generation: 1})}},
	} {
		for _, s := range g.shapes {
			b.Run(s.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					renderTo(g.f, s, w)
				}
			})
			b.Run(s.name+"/reference", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					referenceOK(w, s.reference(g.f.coll))
				}
			})
		}
	}
}

// BenchmarkVerbatimSet times what New spends on the verbatim bits of the
// benchmark's corpus.
func BenchmarkVerbatimSet(b *testing.B) {
	c := renderCollections()["dblp"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newVerbatimSet(c)
	}
}
