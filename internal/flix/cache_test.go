package flix

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/xmlgraph"
)

// cacheOracle answers what a QueryCache must: the replay of a key's complete
// plain stream — IncludeSelf, no bounds, in emission order, evaluated on the
// index without a cache — under a request's Options: the self policy and
// MaxDist filter it, ExactOrder sorts it, MaxResults cuts it.
type cacheOracle struct {
	keys []cacheKey
	full map[cacheKey][]Result
}

// newCacheOracle evaluates up front the plain streams of every tag from a
// spread of document roots — on DBLP their streams cross many meta documents,
// where the approximate order is not the exact one — and of other nodes, so
// concurrent readers only read.
func newCacheOracle(ix *Index, c *xmlgraph.Collection, tags []string) *cacheOracle {
	var starts []xmlgraph.NodeID
	for d := 0; d < c.NumDocs(); d += c.NumDocs()/6 + 1 {
		starts = append(starts, c.Doc(xmlgraph.DocID(d)).Root)
	}
	for n := 1; n < c.NumNodes(); n += c.NumNodes()/6 + 1 {
		starts = append(starts, xmlgraph.NodeID(n))
	}
	o := &cacheOracle{full: map[cacheKey][]Result{}}
	for _, start := range starts {
		for _, tag := range tags {
			k := cacheKey{start: start, tag: tag}
			if _, dup := o.full[k]; !dup {
				o.keys = append(o.keys, k)
				o.full[k] = collect(ix, start, tag, Options{IncludeSelf: true})
			}
		}
	}
	return o
}

func (o *cacheOracle) want(k cacheKey, opts Options) []Result {
	var out []Result
	for _, r := range o.full[k] {
		if (r.Dist != 0 || opts.IncludeSelf) && (opts.MaxDist == 0 || r.Dist <= opts.MaxDist) {
			out = append(out, r)
		}
	}
	if opts.ExactOrder {
		slices.SortFunc(out, func(a, b Result) int { return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Node, b.Node)) })
	}
	if opts.MaxResults > 0 && len(out) > opts.MaxResults {
		out = out[:opts.MaxResults]
	}
	return out
}

// reach is how far the stream of k has to be evaluated for a request under
// opts that stops after limit results (0 = never): the length of the prefix
// at whose end the request has all it takes, or -1 when that is the whole
// stream.
func (o *cacheOracle) reach(k cacheKey, opts Options, limit int) int {
	if limit == 0 || opts.ExactOrder {
		return -1
	}
	got := 0
	for i, r := range o.full[k] {
		if (r.Dist != 0 || opts.IncludeSelf) && (opts.MaxDist == 0 || r.Dist <= opts.MaxDist) {
			if got++; got == limit {
				return i + 1
			}
		}
	}
	return -1
}

// randomRequest draws one request: k ∈ {0, 1, 3, 20, 100}, maxdist ∈
// {0, 1, 3}, either self policy, ExactOrder, and one time in eight a client
// that stops after two results.  k = 0 and ExactOrder come one time in ten
// each, and maxdist 0 half the time: the first two complete an entry, and
// most prefixes should live for a few requests.
func randomRequest(rng *rand.Rand) (opts Options, stop int) {
	opts = Options{
		MaxResults:  []int{1, 3, 20, 100}[rng.Intn(4)],
		MaxDist:     []int32{0, 0, 1, 3}[rng.Intn(4)],
		IncludeSelf: rng.Intn(2) == 0,
		ExactOrder:  rng.Intn(10) == 0,
	}
	if rng.Intn(10) == 0 {
		opts.MaxResults = 0
	}
	if rng.Intn(8) == 0 {
		stop = 2
	}
	return opts, stop
}

// ask sends one request through cache and returns what the client received.
func ask(cache *QueryCache, k cacheKey, opts Options, stop int) []Result {
	var got []Result
	cache.Descendants(k.start, k.tag, opts, func(r Result) bool {
		got = append(got, r)
		return stop == 0 || len(got) < stop
	})
	return got
}

// TestCacheTransparent drives random request sequences through a cache, with
// and without StoreBounded, handing it over to a successor by Warm midway.
// Every answer must equal the oracle's replay of the complete stream, and a
// request must hit exactly when the entry the cache holds by then covers it:
// complete, or a prefix inside which the request's replay reaches its k.
// The entries are tracked in a model — a prefix length, or -1 for complete —
// and a third of the requests for a prefix ask for k at its edge.  The model
// follows the cache's rules: a miss stores what it evaluated (a bounded
// miss only under StoreBounded, a canceled one never), a store never shrinks
// an entry, and Warm evaluates each key exactly as far as its entry reached.
func TestCacheTransparent(t *testing.T) {
	for _, corpus := range identityCorpora() {
		ix, err := Build(corpus.c, Config{Kind: Hybrid, PartitionSize: 40})
		if err != nil {
			t.Fatal(err)
		}
		o := newCacheOracle(ix, corpus.c, corpus.tags)
		for _, bounded := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(len(corpus.name))))
			cache := ix.NewQueryCache(len(o.keys))
			cache.StoreBounded = bounded
			model := map[cacheKey]int{}
			const requests = 400
			for i := 0; i < requests; i++ {
				if i == requests/2 {
					next := ix.NewQueryCache(len(o.keys))
					next.StoreBounded = bounded
					want := cache.HotKeys(0)
					next.Warm(want, nil, func(bool) {})
					if got := next.HotKeys(0); !slices.Equal(got, want) {
						t.Fatalf("%s StoreBounded=%v: warmed successor holds %+v, want %+v", corpus.name, bounded, got, want)
					}
					cache = next
				}
				k := o.keys[rng.Intn(len(o.keys))]
				opts, stop := randomRequest(rng)
				if held := model[k]; held > 0 && rng.Intn(3) == 0 {
					opts.MaxResults = held - 1 + rng.Intn(3) // at the stored prefix's edge
				}
				label := fmt.Sprintf("%s StoreBounded=%v request %d %d//%s %+v stop=%d", corpus.name, bounded, i, k.start, k.tag, opts, stop)

				held, ok := model[k]
				r := o.reach(k, opts, opts.MaxResults)
				covered := ok && (held < 0 || (r > 0 && r <= held))
				hits, _ := cache.Counts()
				got := ask(cache, k, opts, stop)
				want := o.want(k, opts)
				if stop > 0 && len(want) > stop {
					want = want[:stop]
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s:\ngot  %v\nwant %v", label, got, want)
				}
				if after, _ := cache.Counts(); (after > hits) != covered {
					t.Fatalf("%s: hit=%v, the entry (%d, held=%v) says %v", label, after > hits, held, ok, covered)
				}
				if covered || (!bounded && (opts.MaxResults != 0 || opts.MaxDist != 0)) {
					continue
				}
				limit := opts.MaxResults
				if stop > 0 && (limit == 0 || stop < limit) {
					limit = stop
				}
				if r := o.reach(k, opts, limit); !ok || (held >= 0 && (r < 0 || r > held)) {
					model[k] = r
				}
			}
		}
	}
}

// TestCacheTransparentConcurrent runs the random requests of
// TestCacheTransparent from four goroutines at once on one StoreBounded
// cache, one of which warms a successor from it midway and publishes that
// while the others keep asking: every answer must still be the oracle's.
func TestCacheTransparentConcurrent(t *testing.T) {
	for _, corpus := range identityCorpora() {
		ix, err := Build(corpus.c, Config{Kind: Hybrid, PartitionSize: 40})
		if err != nil {
			t.Fatal(err)
		}
		o := newCacheOracle(ix, corpus.c, corpus.tags)
		var current atomic.Pointer[QueryCache]
		first := ix.NewQueryCache(len(o.keys))
		first.StoreBounded = true
		current.Store(first)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 80; i++ {
					if g == 0 && i == 40 {
						next := ix.NewQueryCache(len(o.keys))
						next.StoreBounded = true
						next.Warm(first.HotKeys(0), nil, func(bool) {})
						current.Store(next)
					}
					k := o.keys[rng.Intn(len(o.keys))]
					opts, stop := randomRequest(rng)
					got := ask(current.Load(), k, opts, stop)
					want := o.want(k, opts)
					if stop > 0 && len(want) > stop {
						want = want[:stop]
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s goroutine %d request %d %d//%s %+v stop=%d:\ngot  %v\nwant %v", corpus.name, g, i, k.start, k.tag, opts, stop, got, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestCacheTransparentSeenSet holds the cache to the index under the
// seen-set duplicate rule (Options.DupSeenSet).  A cached entry records the
// coverage rule's stream, and the two rules answer differently from a start
// that lies on a cycle, so such a request must be evaluated on the index —
// never replayed, never stored — and Contains must not claim it.  Each
// sequence starts with a plain request, which stores the key's entry, and
// asks for the same seen-set request twice.
func TestCacheTransparentSeenSet(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := xmlgraph.RandomCollection(rng, 2+rng.Intn(8), 12, rng.Intn(18))
		ix, err := Build(c, Config{Kind: UnconnectedHOPI, PartitionSize: 20})
		if err != nil {
			t.Fatal(err)
		}
		start := xmlgraph.NodeID(rng.Intn(c.NumNodes()))
		k := cacheKey{start: start}
		for _, bounded := range []bool{false, true} {
			cache := ix.NewQueryCache(4)
			cache.StoreBounded = bounded
			for i, opts := range []Options{
				{},
				{DupSeenSet: true},
				{DupSeenSet: true, IncludeSelf: true},
				{DupSeenSet: true, MaxResults: 3},
				{DupSeenSet: true},
			} {
				label := fmt.Sprintf("seed %d StoreBounded=%v request %d %+v", seed, bounded, i, opts)
				if opts.DupSeenSet && cache.Contains(start, "", opts) {
					t.Fatalf("%s: Contains claims a seen-set request", label)
				}
				if got, want := ask(cache, k, opts, 0), collect(ix, start, "", opts); !slices.Equal(got, want) {
					t.Fatalf("%s:\ngot  %v\nwant %v", label, got, want)
				}
			}
		}
	}
}

// TestCacheExactMissStoresApproximateStream is the regression test of an
// ExactOrder miss that stored its exactly ordered stream, so approximate
// requests for the key replayed that order afterwards.  An ExactOrder miss
// evaluates the approximate stream to completion, stores it and answers it
// sorted: the exact request gets what the uncached exact evaluation gives,
// and an approximate request after it what the uncached approximate one
// gives.  On the DBLP extract most keys order the two differently.
func TestCacheExactMissStoresApproximateStream(t *testing.T) {
	corpora := identityCorpora()
	corpus := corpora[len(corpora)-1]
	ix, err := Build(corpus.c, Config{Kind: Hybrid, PartitionSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for _, k := range newCacheOracle(ix, corpus.c, corpus.tags).keys {
		cache := ix.NewQueryCache(1)
		cache.StoreBounded = true
		for _, opts := range []Options{{ExactOrder: true, MaxResults: 10}, {MaxResults: 10}} {
			if got, want := ask(cache, k, opts, 0), collect(ix, k.start, k.tag, opts); !slices.Equal(got, want) {
				t.Errorf("%d//%s %+v after an exact miss:\ngot  %v\nwant %v", k.start, k.tag, opts, got, want)
			}
		}
		if !slices.Equal(collect(ix, k.start, k.tag, Options{ExactOrder: true, MaxResults: 10}), collect(ix, k.start, k.tag, Options{MaxResults: 10})) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("no key orders its first ten results differently exact and approximate: the test proves nothing")
	}
}
