package flix

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/xmlgraph"
)

// buildChain creates n single-item documents linked in a chain
// (d0.item -> d1.doc -> d1.item -> d2.doc -> ...), so a descendants query
// from the first root must hop a runtime link per document and the frontier
// drains one meta document per pop under the Naive configuration.
func buildChain(t testing.TB, n int) (*xmlgraph.Collection, xmlgraph.NodeID) {
	t.Helper()
	c := xmlgraph.NewCollection()
	roots := make([]xmlgraph.NodeID, n)
	leaves := make([]xmlgraph.NodeID, n)
	for i := 0; i < n; i++ {
		d := c.NewDocument(fmt.Sprintf("d%03d.xml", i))
		roots[i] = d.Enter("doc", "")
		leaves[i] = d.AddLeaf("item", fmt.Sprintf("item %d", i))
		d.Leave()
		d.Close()
	}
	for i := 0; i+1 < n; i++ {
		c.AddLink(leaves[i], roots[i+1], xmlgraph.EdgeInterLink)
	}
	c.Freeze()
	return c, roots[0]
}

func TestCancelPreTrippedStopsImmediately(t *testing.T) {
	c, start := buildChain(t, 20)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done)
	before := ix.Stats().Snapshot()
	got := collect(ix, start, "item", Options{Cancel: done})
	after := ix.Stats().Snapshot()
	if len(got) != 0 {
		t.Errorf("pre-tripped cancel emitted %d results, want 0", len(got))
	}
	if d := after.Entries - before.Entries; d != 0 {
		t.Errorf("pre-tripped cancel processed %d entries, want 0", d)
	}
}

func TestCancelStopsBeforeExhaustingFrontier(t *testing.T) {
	const n = 30
	c, start := buildChain(t, n)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: uncancelled, the query walks the whole chain.
	if all := collect(ix, start, "item", Options{}); len(all) != n {
		t.Fatalf("uncancelled query found %d items, want %d", len(all), n)
	}
	cancel := make(chan struct{})
	before := ix.Stats().Snapshot()
	emitted := 0
	ix.Descendants(start, "item", Options{Cancel: cancel}, func(Result) bool {
		emitted++
		if emitted == 1 {
			close(cancel)
		}
		return true
	})
	after := ix.Stats().Snapshot()
	if emitted >= n {
		t.Errorf("canceled query emitted %d results, want < %d", emitted, n)
	}
	// The cancel trips after the first meta document; the loop must stop
	// at the next pop, far short of the n-entry frontier walk.
	if d := after.Entries - before.Entries; d >= n {
		t.Errorf("canceled query processed %d entries, want < %d", d, n)
	}
}

func TestConnectedOptsCancel(t *testing.T) {
	c, start := buildChain(t, 15)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	target := c.NodesByTag("item")[14]
	if _, ok := ix.Connected(start, target, 0); !ok {
		t.Fatal("chain ends must be connected")
	}
	done := make(chan struct{})
	close(done)
	if d, ok := ix.ConnectedOpts(start, target, Options{Cancel: done}); ok {
		t.Errorf("canceled connection test reported connected (dist %d)", d)
	}
}

func TestCacheDoesNotStoreCanceledEvaluation(t *testing.T) {
	c, start := buildChain(t, 20)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	cache := ix.NewQueryCache(4)
	cancel := make(chan struct{})
	emitted := 0
	cache.Descendants(start, "item", Options{Cancel: cancel}, func(Result) bool {
		emitted++
		if emitted == 1 {
			close(cancel)
		}
		return true
	})
	if cache.Len() != 0 {
		t.Fatalf("canceled evaluation was cached (%d entries)", cache.Len())
	}
	// A complete run stores; a third run hits.
	cache.Descendants(start, "item", Options{}, func(Result) bool { return true })
	if cache.Len() != 1 {
		t.Fatalf("complete evaluation not cached (%d entries)", cache.Len())
	}
	n := 0
	cache.Descendants(start, "item", Options{}, func(Result) bool { n++; return true })
	if n != 20 {
		t.Errorf("cached replay returned %d results, want 20", n)
	}
	if hits, _ := cache.Counts(); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
}

func TestCacheStoreBounded(t *testing.T) {
	c, start := buildChain(t, 20)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	cache := ix.NewQueryCache(4)
	cache.StoreBounded = true
	n := 0
	cache.Descendants(start, "item", Options{MaxResults: 3}, func(Result) bool { n++; return true })
	if n != 3 {
		t.Fatalf("bounded miss returned %d results, want 3", n)
	}
	if cache.Len() != 1 {
		t.Fatalf("StoreBounded miss did not populate the cache (%d entries)", cache.Len())
	}
	// The stored stream is complete: an unbounded follow-up is a hit with
	// the full result set.
	n = 0
	cache.Descendants(start, "item", Options{}, func(Result) bool { n++; return true })
	if n != 20 {
		t.Errorf("replay of stored stream returned %d results, want 20", n)
	}
	if hits, misses := cache.Counts(); hits != 1 || misses != 1 {
		t.Errorf("counts = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

// TestCacheIncludeSelf: one stored stream serves both include-self policies,
// whichever policy or bound the miss that stored it — or Warm — ran under.
func TestCacheIncludeSelf(t *testing.T) {
	c, start := buildChain(t, 20)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	for _, bounded := range []bool{false, true} {
		for _, miss := range []Options{{IncludeSelf: true}, {}, {MaxResults: 5}, {MaxResults: 5, IncludeSelf: true}} {
			cache, next := ix.NewQueryCache(4), ix.NewQueryCache(4)
			cache.StoreBounded = bounded
			for i, opts := range []Options{miss, {IncludeSelf: true}, {}, {IncludeSelf: true, MaxResults: 3}, {IncludeSelf: true}} {
				if i == 4 { // the last call goes to a successor warmed from this cache
					next.Warm(cache.HotKeys(0), nil, func(bool) {})
					cache = next
				}
				var got []Result
				cache.Descendants(start, "doc", opts, func(r Result) bool { got = append(got, r); return true })
				if want := collect(ix, start, "doc", opts); !reflect.DeepEqual(got, want) {
					t.Errorf("StoreBounded=%v miss %+v, call %d %+v:\ngot  %v\nwant %v", bounded, miss, i, opts, got, want)
				}
			}
		}
	}
}
