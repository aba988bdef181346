package flix

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/xmlgraph"
)

// fillCache issues one completed descendants query per key so it lands in
// the cache, in the given order (last issued = most recently used).
func fillCache(cache *QueryCache, keys []HotKey) {
	for _, k := range keys {
		cache.Descendants(k.Start, k.Tag, Options{}, func(Result) bool { return true })
	}
}

// warmAll runs one warm sweep and returns how many keys it dealt with, how
// many of those it stored, and the remainder it hands on.
func warmAll(c *QueryCache, keys []HotKey, cancel <-chan struct{}) (dealt, stored int, rest []HotKey) {
	rest = c.Warm(keys, cancel, func(ok bool) {
		dealt++
		if ok {
			stored++
		}
	})
	return dealt, stored, rest
}

// sampleKeys returns n distinct keys over the sample collection (every node
// with every tag; most streams are empty, which a cache stores all the same).
func sampleKeys(c *xmlgraph.Collection, n int) []HotKey {
	var keys []HotKey
	for _, tag := range []string{"title", "author", "article", "cite", "paper", "bib", ""} {
		for node := 0; node < c.NumNodes(); node++ {
			if len(keys) == n {
				return keys
			}
			keys = append(keys, HotKey{Start: xmlgraph.NodeID(node), Tag: tag})
		}
	}
	panic("sample collection too small")
}

// TestHotKeysEmptyCache checks the degenerate warming handoff: a fresh cache
// has no working set, and warming from one is a no-op rather than an error.
func TestHotKeysEmptyCache(t *testing.T) {
	c, _ := buildSample(t)
	ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold := ix.NewQueryCache(8)
	if keys := cold.HotKeys(0); len(keys) != 0 {
		t.Fatalf("HotKeys on empty cache = %v, want empty", keys)
	}
	if keys := cold.HotKeys(5); len(keys) != 0 {
		t.Fatalf("HotKeys(5) on empty cache = %v, want empty", keys)
	}
	next := ix.NewQueryCache(8)
	if dealt, _, rest := warmAll(next, nil, nil); dealt != 0 || rest != nil {
		t.Fatalf("Warm(nil) dealt with %d keys and left %v, want 0 and none", dealt, rest)
	}
	if dealt, _, rest := warmAll(next, []HotKey{}, nil); dealt != 0 || rest != nil {
		t.Fatalf("Warm(empty) dealt with %d keys and left %v, want 0 and none", dealt, rest)
	}
	if next.Len() != 0 {
		t.Fatalf("cache length after empty warm = %d", next.Len())
	}
}

// TestWarmSmallerCapacity checks warming a replacement cache whose capacity
// is below the hot-key count: the sweep runs hottest first and a cold store
// never evicts, so the cache fills with exactly the most recently used keys,
// in the source's order, and the sweep ends there.
func TestWarmSmallerCapacity(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	old := ix.NewQueryCache(8)
	// Four distinct queries, most recent last.
	order := []HotKey{
		{Start: ids["bib"], Tag: "title"},
		{Start: ids["bib"], Tag: "author"},
		{Start: ids["art1"], Tag: "title"},
		{Start: ids["art2"], Tag: "title"},
	}
	fillCache(old, order)
	keys := old.HotKeys(0)
	if len(keys) != len(order) {
		t.Fatalf("HotKeys = %d keys, want %d", len(keys), len(order))
	}
	// Most recently used first.
	if keys[0] != order[len(order)-1] {
		t.Fatalf("HotKeys[0] = %+v, want the most recent %+v", keys[0], order[len(order)-1])
	}

	next := ix.NewQueryCache(2)
	if dealt, stored, rest := warmAll(next, keys, nil); dealt != 2 || stored != 2 || rest != nil {
		t.Fatalf("Warm dealt with %d keys, stored %d, left %v; want 2, 2 and none (a full cache ends the sweep)", dealt, stored, rest)
	}
	if got := next.HotKeys(0); !reflect.DeepEqual(got, keys[:2]) {
		t.Fatalf("warmed cache holds %+v, want the two hottest in source order %+v", got, keys[:2])
	}
	// Hitting the survivors is a pure cache hit.
	for _, k := range keys[:2] {
		next.Descendants(k.Start, k.Tag, Options{}, func(Result) bool { return true })
	}
	if hits, misses := next.Counts(); hits != 2 || misses != 0 {
		t.Fatalf("hits/misses after warming = %d/%d, want 2/0", hits, misses)
	}
	// The coldest key never got in and misses.
	cold := keys[len(keys)-1]
	next.Descendants(cold.Start, cold.Tag, Options{}, func(Result) bool { return true })
	if hits, misses := next.Counts(); misses != 1 {
		t.Fatalf("hits/misses after cold lookup = %d/%d, want one miss", hits, misses)
	}
}

// TestWarmBehindLiveTraffic checks the cold store's two promises and the
// order they add up to.  Quiet: warming an empty cache reproduces the
// source's LRU order exactly.  Live entries first: the sweep fills only the
// room they left, behind them, and skips a key they already hold.  Live
// traffic storing concurrently: no live entry is ever evicted by a warmed
// one, and none ends up ranked behind one.
func TestWarmBehindLiveTraffic(t *testing.T) {
	c, _ := buildSample(t)
	ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	all := sampleKeys(c, 48)
	inherited, live := all[:32], all[32:]
	old := ix.NewQueryCache(64)
	fillCache(old, inherited)
	source := old.HotKeys(0)

	quiet := ix.NewQueryCache(64)
	if dealt, stored, rest := warmAll(quiet, source, nil); dealt != 32 || stored != 32 || rest != nil {
		t.Fatalf("quiet warm dealt with %d keys, stored %d, left %v; want 32, 32 and none", dealt, stored, rest)
	}
	for i, k := range quiet.HotKeys(0) {
		if k != source[i] {
			t.Fatalf("after a quiet warm rank %d holds %+v, want the source's %+v", i, k, source[i])
		}
	}

	// Two live entries, one of them also the hottest inherited key, in a
	// cache with room for four.
	ahead := ix.NewQueryCache(4)
	fillCache(ahead, []HotKey{live[0], source[0]})
	if dealt, stored, _ := warmAll(ahead, source, nil); dealt != 3 || stored != 2 {
		t.Fatalf("warm behind two live entries dealt with %d keys and stored %d, want 3 (one skipped) and 2", dealt, stored)
	}
	if got, want := ahead.HotKeys(0), []HotKey{source[0], live[0], source[1], source[2]}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cache order %+v, want live entries first, then the warmed ones hottest first: %+v", got, want)
	}

	// Sixteen live stores race the sweep into a cache of 24: every one of
	// them must survive, ahead of every warmed entry.
	busy := ix.NewQueryCache(24)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fillCache(busy, live)
	}()
	warmAll(busy, source, nil)
	wg.Wait()
	got := busy.HotKeys(0)
	if len(got) < len(live) {
		t.Fatalf("cache holds %d entries, fewer than the %d live stores", len(got), len(live))
	}
	// Live stores go to the front in issue order, so the head of the cache
	// is the live keys, last issued first.
	for i, k := range got[:len(live)] {
		if want := live[len(live)-1-i]; k != want {
			t.Fatalf("rank %d holds %+v, want the live key %+v: a warmed entry evicted or outranked a live one\n%+v", i, k, want, got)
		}
	}
}

// TestWarmTruncatedHotKeys checks HotKeys' n bound: a warming budget smaller
// than the working set takes the n most recent keys only.
func TestWarmTruncatedHotKeys(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	cache := ix.NewQueryCache(8)
	order := []HotKey{
		{Start: ids["bib"], Tag: "author"},
		{Start: ids["bib"], Tag: "title"},
		{Start: ids["paper"], Tag: "title"},
	}
	fillCache(cache, order)
	keys := cache.HotKeys(2)
	if len(keys) != 2 {
		t.Fatalf("HotKeys(2) = %d keys", len(keys))
	}
	if keys[0] != order[2] || keys[1] != order[1] {
		t.Fatalf("HotKeys(2) = %+v, want the two most recent in MRU order", keys)
	}
	// n beyond the population clamps.
	if keys := cache.HotKeys(100); len(keys) != len(order) {
		t.Fatalf("HotKeys(100) = %d keys, want %d", len(keys), len(order))
	}
}

// TestWarmConcurrentWithQueries checks the hot-swap scenario under the race
// detector: the replacement cache is being warmed while clients already
// query both generations' caches, and a cancellation ends the sweep with
// nothing stored and every key handed on.
func TestWarmConcurrentWithQueries(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	old := ix.NewQueryCache(8)
	order := []HotKey{
		{Start: ids["bib"], Tag: "title"},
		{Start: ids["bib"], Tag: "author"},
		{Start: ids["art1"], Tag: "title"},
		{Start: ids["paper"], Tag: "title"},
	}
	fillCache(old, order)
	next := ix.NewQueryCache(8)

	cancel := make(chan struct{})
	var wg sync.WaitGroup
	// Clients hammer both caches while the warm sweep runs.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := order[(g+i)%len(order)]
				target := next
				if i%2 == 0 {
					target = old
				}
				target.Descendants(k.Start, k.Tag, Options{}, func(Result) bool { return true })
			}
		}(g)
	}
	// A second warmer racing the first: a cold store leaves a key that is
	// already cached alone, so the outcome is the same working set.
	wg.Add(1)
	go func() {
		defer wg.Done()
		warmAll(next, old.HotKeys(2), nil)
	}()
	dealt, _, rest := warmAll(next, old.HotKeys(0), cancel)
	wg.Wait()
	close(cancel)
	if dealt != len(order) || rest != nil {
		t.Fatalf("Warm dealt with %d keys and left %v, want %d and none", dealt, rest, len(order))
	}
	if next.Len() != len(order) {
		t.Fatalf("cache length = %d, want %d", next.Len(), len(order))
	}
	// Every hot key replays from the warmed cache with the right stream.
	for _, k := range order {
		var got, want []Result
		next.Descendants(k.Start, k.Tag, Options{ExactOrder: true}, func(r Result) bool {
			got = append(got, r)
			return true
		})
		ix.Descendants(k.Start, k.Tag, Options{ExactOrder: true}, func(r Result) bool {
			want = append(want, r)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("key %+v: %d results from warmed cache, %d from index", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("key %+v result %d: %+v != %+v", k, i, got[i], want[i])
			}
		}
	}

	// A cancellation that fires immediately warms nothing and hands every
	// key on.
	done := make(chan struct{})
	close(done)
	frozen := ix.NewQueryCache(8)
	keys := old.HotKeys(0)
	if dealt, _, rest := warmAll(frozen, keys, done); dealt != 0 || !reflect.DeepEqual(rest, keys) {
		t.Fatalf("canceled Warm dealt with %d keys and left %+v, want 0 and all of %+v", dealt, rest, keys)
	}
	if frozen.Len() != 0 {
		t.Fatalf("canceled warm stored %d entries", frozen.Len())
	}
	// One that fires mid-sweep keeps what was stored before it, stores
	// nothing after it, and hands on the rest.
	stop := make(chan struct{})
	dealt = 0
	rest = frozen.Warm(keys, stop, func(bool) {
		if dealt++; dealt == 2 {
			close(stop)
		}
	})
	if dealt != 2 || frozen.Len() != 2 || !reflect.DeepEqual(rest, keys[2:]) {
		t.Fatalf("Warm canceled after 2 keys: dealt with %d, stored %d, left %+v; want 2, 2 and %+v", dealt, frozen.Len(), rest, keys[2:])
	}
}
