package flix

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/dblp"
	"repro/internal/obs"
	"repro/internal/pathindex"
	"repro/internal/xmlgraph"
)

// lazyCorpus is a DBLP collection whose Hybrid/5000 decomposition has a
// hundred-odd meta documents, most of them region-encoded with runtime links.
func lazyCorpus() *xmlgraph.Collection {
	return dblp.Generate(dblp.Scaled(600)).BuildGraph()
}

// heldTables returns every meta document's published link table, nil where
// none is built.
func heldTables(ix *Index) []*pathindex.LinkTable {
	out := make([]*pathindex.LinkTable, len(ix.linkTabs))
	for mi := range ix.linkTabs {
		out[mi] = ix.linkTabs[mi].Load()
	}
	return out
}

// lazyQueries is a fixed list of uncached descendants queries: document roots
// spread over the collection, each with a tag in turn, k=100.
func lazyQueries(c *xmlgraph.Collection, n int) []cacheKey {
	rng := rand.New(rand.NewSource(40))
	tags := []string{"article", "author", "title", "cite", ""}
	keys := make([]cacheKey, n)
	for i := range keys {
		keys[i] = cacheKey{start: c.Doc(xmlgraph.DocID(rng.Intn(c.NumDocs()))).Root, tag: tags[i%len(tags)]}
	}
	return keys
}

// TestLinkTablesBuiltOnFirstFollow holds the link tables to first use: a heap
// build, a raw-mapped open and a compressed open hold none; one descendants
// query builds exactly the tables of the region-encoded meta documents whose
// follow step it ran (every entry's, since nothing stops the stream) and
// leaves the others empty; a second query reuses the published tables.
func TestLinkTablesBuiltOnFirstFollow(t *testing.T) {
	c := lazyCorpus()
	built, err := Build(c, Config{Kind: Hybrid, PartitionSize: 5000})
	if err != nil {
		t.Fatal(err)
	}
	backends := driverBackends(t, c, built)
	start := c.Doc(xmlgraph.DocID(c.NumDocs() - 1)).Root
	for _, name := range []string{"heap", "mapped", "compressed"} {
		ix := backends[name]
		for mi, lt := range heldTables(ix) {
			if lt != nil {
				t.Fatalf("%s: meta document %d holds a link table before any query", name, mi)
			}
		}
		tr := obs.NewTrace(0)
		collect(ix, start, "title", Options{Tracer: tr})
		followed := make([]bool, ix.NumMetaDocuments())
		for _, v := range tr.Summary(false).Metas {
			followed[v.Meta] = v.Entries > 0
		}
		held := heldTables(ix)
		linked, made, idle := 0, 0, 0
		for mi, lt := range held {
			md := ix.set.Metas[mi]
			if ix.regions[mi] == nil || len(md.LinkSources) == 0 {
				if lt != nil {
					t.Fatalf("%s: meta document %d holds a link table without region encoding or links", name, mi)
				}
				continue
			}
			linked++
			if want := followed[mi]; (lt != nil) != want {
				t.Fatalf("%s: meta document %d holds a table: %v, its follow step ran: %v", name, mi, lt != nil, want)
			}
			if lt != nil {
				made++
			} else {
				idle++
			}
		}
		if made == 0 || idle == 0 {
			t.Fatalf("%s: the query built %d of %d link tables: want some built and some not", name, made, linked)
		}
		t.Logf("%s: one query built %d of %d link tables", name, made, linked)

		collect(ix, start, "author", Options{})
		for mi, lt := range heldTables(ix) {
			if held[mi] != nil && lt != held[mi] {
				t.Fatalf("%s: meta document %d: a second query replaced its link table", name, mi)
			}
		}
	}
}

// TestLinkTableConcurrentFirstUse runs one fixed query list from eight
// goroutines at once against a fresh compressed, mapped open, so they race to
// build the same link tables.  Every answer must equal a serial run's on a
// second fresh open of the same file, both opens must end up holding the same
// tables, and a table once published must stay: the pointers read after the
// run do not change when the list runs again.
func TestLinkTableConcurrentFirstUse(t *testing.T) {
	c := lazyCorpus()
	built, err := Build(c, Config{Kind: Hybrid, PartitionSize: 5000})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gen.flix")
	if err := os.WriteFile(path, snapshotImage(t, built, true), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func() *Index {
		ix, err := OpenSnapshot(c, path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		if !ix.StorageInfo().Mapped || !ix.StorageInfo().Compressed {
			t.Fatalf("open of %s is not a compressed mapping: %+v", path, ix.StorageInfo())
		}
		return ix
	}
	keys := lazyQueries(c, 40)
	opts := Options{MaxResults: 100}
	serial := open()
	want := make([][]Result, len(keys))
	for i, k := range keys {
		want[i] = collect(serial, k.start, k.tag, opts)
	}

	ix := open()
	const workers = 8
	var wg sync.WaitGroup
	ready := make(chan struct{})
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-ready
			for i := range keys {
				j := (i + w*len(keys)/workers) % len(keys)
				if got := collect(ix, keys[j].start, keys[j].tag, opts); !slices.Equal(got, want[j]) {
					errs <- "worker answers differ from the serial run on " + keys[j].tag
					return
				}
			}
		}(w)
	}
	close(ready)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	held, serialHeld := heldTables(ix), heldTables(serial)
	n := 0
	for mi, lt := range held {
		if (lt != nil) != (serialHeld[mi] != nil) {
			t.Fatalf("meta document %d holds a table after the concurrent run: %v, after the serial run: %v", mi, lt != nil, serialHeld[mi] != nil)
		}
		if lt == nil {
			continue
		}
		n++
		to, dep := lt.Links()
		sto, sdep := serialHeld[mi].Links()
		if !slices.Equal(to, sto) || !slices.Equal(dep, sdep) {
			t.Fatalf("meta document %d: the concurrent run's link table differs from the serial run's", mi)
		}
	}
	if n == 0 {
		t.Fatal("the query list built no link table")
	}
	t.Logf("%d queries on %d goroutines built %d of %d link tables", len(keys), workers, n, len(held))
	for _, k := range keys {
		collect(ix, k.start, k.tag, opts)
	}
	for mi, lt := range heldTables(ix) {
		if lt != held[mi] {
			t.Fatalf("meta document %d: its published link table changed on a later run", mi)
		}
	}
}
