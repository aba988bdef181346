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

// BenchmarkRender times hits → wire bytes on the benchmark's corpus, and
// beside each shape what the frozen reference (wire structs, encoding/json,
// json.Indent) takes for the same bytes.
func BenchmarkRender(b *testing.B) {
	c := renderCollections()["dblp"]
	f := &Front{coll: c}
	w := discardWriter{h: make(http.Header)}
	for _, s := range benchShapes(c) {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				renderTo(f, s, w)
			}
		})
		b.Run(s.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				referenceOK(w, s.reference(c))
			}
		})
	}
}
