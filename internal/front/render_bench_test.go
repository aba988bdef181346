package front

import (
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/xmlgraph"
)

// benchShapes are the three responses mixed-warm is made of — a hundred
// descendants, a ranked top ten, a batch of 32 items of a hundred hits —
// for BenchmarkRender and the allocation budget.
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
	}
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
