package flix

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/xmlgraph"
)

// inheritShapes are the request shapes of TestCacheTransparent's random
// requests: prefixes (k), ExactOrder, MaxDist and both self policies.
var inheritShapes = []Options{
	{}, {IncludeSelf: true}, {MaxResults: 1}, {MaxResults: 3, IncludeSelf: true}, {MaxResults: 20},
	{ExactOrder: true}, {ExactOrder: true, MaxResults: 3}, {MaxDist: 1}, {MaxDist: 3, MaxResults: 3},
	{MaxDist: 3, IncludeSelf: true},
}

// inheritKeys returns the keys of cacheOracle — every tag from a spread of
// document roots and other nodes — without evaluating them.
func inheritKeys(c *xmlgraph.Collection, tags []string) []cacheKey {
	var keys []cacheKey
	seen := map[cacheKey]bool{}
	add := func(start xmlgraph.NodeID) {
		for _, tag := range tags {
			if k := (cacheKey{start: start, tag: tag}); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	for d := 0; d < c.NumDocs(); d += c.NumDocs()/6 + 1 {
		add(c.Doc(xmlgraph.DocID(d)).Root)
	}
	for n := 1; n < c.NumNodes(); n += c.NumNodes()/6 + 1 {
		add(xmlgraph.NodeID(n))
	}
	return keys
}

// filledCache returns a StoreBounded cache over ix holding one entry per key,
// stored by a request of a shape taken in turn, so the cache holds prefixes
// and complete streams.
func filledCache(t *testing.T, ix *Index, keys []cacheKey) *QueryCache {
	t.Helper()
	c := ix.NewQueryCache(len(keys))
	c.StoreBounded = true
	for i, k := range keys {
		ask(c, k, inheritShapes[i%len(inheritShapes)], 0)
	}
	prefixes := 0
	for _, hk := range c.HotKeys(0) {
		if hk.Prefix > 0 {
			prefixes++
		}
	}
	if c.Len() != len(keys) || prefixes == 0 || prefixes == len(keys) {
		t.Fatalf("filled cache holds %d entries for %d keys, %d of them prefixes: want every key, prefixes and complete streams", c.Len(), len(keys), prefixes)
	}
	return c
}

// snapshotImage writes ix as a v2 image.
func snapshotImage(t *testing.T, ix *Index, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteSnapshotV2With(&buf, SnapshotV2Options{Compress: compress}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openImage opens a v2 image against c.
func openImage(t *testing.T, c *xmlgraph.Collection, img []byte) *Index {
	t.Helper()
	ix, err := OpenSnapshotBytes(c, img)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// checkReplays asks cache every key under every shape: each answer must equal
// a fresh evaluation on ix, the index the cache wraps, and a request must hit
// exactly when the entry the cache holds covers it.  It returns the hits.
func checkReplays(t *testing.T, label string, cache *QueryCache, ix *Index, keys []cacheKey) int {
	t.Helper()
	hits := 0
	for _, k := range keys {
		for _, opts := range inheritShapes {
			covered := cache.Contains(k.start, k.tag, opts)
			before, _ := cache.Counts()
			got, want := ask(cache, k, opts, 0), collect(ix, k.start, k.tag, opts)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %d//%s %+v:\ngot  %v\nwant %v", label, k.start, k.tag, opts, got, want)
			}
			if after, _ := cache.Counts(); (after > before) != covered {
				t.Fatalf("%s: %d//%s %+v: hit=%v, but the entry covers it: %v", label, k.start, k.tag, opts, after > before, covered)
			}
			if covered {
				hits++
			}
		}
	}
	return hits
}

// TestInheritSameSnapshot reopens one snapshot image: the new generation's
// cache takes over every entry of the old one, in the old one's order, and
// evaluates nothing — and every replay of an inherited entry, under every
// request shape, is what a fresh evaluation on the new index answers.
func TestInheritSameSnapshot(t *testing.T) {
	for _, corpus := range identityCorpora() {
		built, err := Build(corpus.c, Config{Kind: Hybrid, PartitionSize: 40})
		if err != nil {
			t.Fatal(err)
		}
		keys := inheritKeys(corpus.c, corpus.tags)
		for _, compress := range []bool{false, true} {
			label := fmt.Sprintf("%s compress=%v", corpus.name, compress)
			img := snapshotImage(t, built, compress)
			old, next := openImage(t, corpus.c, img), openImage(t, corpus.c, img)
			oc := filledCache(t, old, keys)
			nc := next.NewQueryCache(len(keys))
			nc.StoreBounded = true
			if inherited := nc.Inherit(oc); inherited != len(keys) {
				t.Fatalf("%s: inherited %d of %d entries, want all", label, inherited, len(keys))
			}
			if got, want := nc.HotKeys(0), oc.HotKeys(0); !slices.Equal(got, want) {
				t.Fatalf("%s: the inherited cache is not the old one in its order:\ngot  %+v\nwant %+v", label, got, want)
			}
			if q := next.Stats().Snapshot().Queries; q != 0 {
				t.Fatalf("%s: Inherit evaluated %d queries on the new index", label, q)
			}
			if hits := checkReplays(t, label, nc, next, keys); hits == 0 {
				t.Fatalf("%s: no request hit an inherited entry", label)
			}
		}
	}
}

// TestInheritChangedImage swaps in the compressed snapshot of the build whose
// raw snapshot the old index was opened from: one decomposition, the same
// answers, but other section bytes.  Nothing is inherited; Warm evaluates
// every key as far as its entry reached, in the old order, and every replay
// afterwards is held to a fresh evaluation on the new index.
func TestInheritChangedImage(t *testing.T) {
	for _, corpus := range identityCorpora() {
		built, err := Build(corpus.c, Config{Kind: Hybrid, PartitionSize: 40})
		if err != nil {
			t.Fatal(err)
		}
		raw, comp := snapshotImage(t, built, false), snapshotImage(t, built, true)
		if bytes.Equal(raw, comp) {
			continue // no meta document has a compressed section
		}
		old, next := openImage(t, corpus.c, raw), openImage(t, corpus.c, comp)
		if SetOf(old) != SetOf(next) {
			t.Fatalf("%s: two opens of one build must share the decomposition", corpus.name)
		}
		keys := inheritKeys(corpus.c, corpus.tags)
		oc := filledCache(t, old, keys)
		nc := next.NewQueryCache(len(keys))
		nc.StoreBounded = true
		if inherited := nc.Inherit(oc); inherited != 0 || nc.Len() != 0 {
			t.Fatalf("%s: inherited %d entries (cache holds %d) across different images, want none", corpus.name, inherited, nc.Len())
		}
		want := oc.HotKeys(0)
		nc.Warm(want, nil, func(bool) {})
		if got := nc.HotKeys(0); !slices.Equal(got, want) {
			t.Fatalf("%s: after Warm the cache holds %+v, want the old entries in the old order: %+v", corpus.name, got, want)
		}
		if q := next.Stats().Snapshot().Queries; int(q) != len(keys) {
			t.Fatalf("%s: Warm evaluated %d queries, want %d", corpus.name, q, len(keys))
		}
		checkReplays(t, corpus.name, nc, next, keys)
	}
}

// TestInheritNothingComparable: a cache inherits nothing from one over
// another decomposition, nor across a heap build and a snapshot of it in
// either direction, which share the decomposition but are never compared.
// One index handed over to itself, and two mappings of one file, inherit
// everything.
func TestInheritNothingComparable(t *testing.T) {
	corpora := identityCorpora()
	corpus := corpora[len(corpora)-1]
	built, err := Build(corpus.c, Config{Kind: Hybrid, PartitionSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gen-000001.flix")
	if err := os.WriteFile(path, snapshotImage(t, built, true), 0o644); err != nil {
		t.Fatal(err)
	}
	var mapped [2]*Index
	for i := range mapped {
		if mapped[i], err = OpenSnapshot(corpus.c, path); err != nil {
			t.Fatal(err)
		}
		defer mapped[i].Close()
	}
	other, err := Build(corpus.c, Config{Kind: Hybrid, PartitionSize: 41})
	if err != nil {
		t.Fatal(err)
	}
	if SetOf(mapped[0]) != SetOf(built) || SetOf(other) == SetOf(built) {
		t.Fatal("the build and its snapshot must share one decomposition, the other configuration another")
	}
	keys := inheritKeys(corpus.c, corpus.tags)
	for _, pair := range []struct {
		name       string
		from, to   *Index
		inheritAll bool
	}{
		{"another decomposition", other, built, false},
		{"heap to mapped", built, mapped[0], false},
		{"mapped to heap", mapped[0], built, false},
		{"one heap index", built, built, true},
		{"one file mapped twice", mapped[0], mapped[1], true},
	} {
		oc := filledCache(t, pair.from, keys)
		nc := pair.to.NewQueryCache(len(keys))
		inherited := nc.Inherit(oc)
		if pair.inheritAll {
			if inherited != len(keys) || !slices.Equal(nc.HotKeys(0), oc.HotKeys(0)) {
				t.Errorf("%s: inherited %d entries, want all %d in the old order", pair.name, inherited, len(keys))
			}
			continue
		}
		if inherited != 0 || nc.Len() != 0 {
			t.Errorf("%s: inherited %d entries (cache holds %d), want none", pair.name, inherited, nc.Len())
		}
	}
}

// TestInheritConcurrentWithQueries hands a cache over, Inherit then Warm,
// to an index opened from the same image and to one opened from another
// image of the same build, while clients query both caches; every answer
// must equal a fresh evaluation on the index the answering cache wraps.
func TestInheritConcurrentWithQueries(t *testing.T) {
	corpora := identityCorpora()
	corpus := corpora[len(corpora)-1]
	built, err := Build(corpus.c, Config{Kind: Hybrid, PartitionSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	img := snapshotImage(t, built, true)
	keys := inheritKeys(corpus.c, corpus.tags)
	for _, nextImg := range [][]byte{img, snapshotImage(t, built, false)} {
		old, next := openImage(t, corpus.c, img), openImage(t, corpus.c, nextImg)
		oc := filledCache(t, old, keys)
		nc := next.NewQueryCache(len(keys))
		nc.StoreBounded = true
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 60; i++ {
					k, opts := keys[rng.Intn(len(keys))], inheritShapes[rng.Intn(len(inheritShapes))]
					cache, ix := oc, old
					if i%2 == 1 {
						cache, ix = nc, next
					}
					if got, want := ask(cache, k, opts, 0), collect(ix, k.start, k.tag, opts); !slices.Equal(got, want) {
						t.Errorf("goroutine %d request %d %d//%s %+v:\ngot  %v\nwant %v", g, i, k.start, k.tag, opts, got, want)
						return
					}
				}
			}(g)
		}
		hot := oc.HotKeys(0)
		if nc.Inherit(oc) == 0 {
			nc.Warm(hot, nil, func(bool) {})
		}
		wg.Wait()
		checkReplays(t, corpus.name, nc, next, keys)
	}
}
