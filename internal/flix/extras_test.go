package flix

import (
	"sync"
	"testing"

	"repro/internal/dblp"
	"repro/internal/xmlgraph"
)

func TestQueryStats(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	if s := ix.Stats().Snapshot(); s.Queries != 0 {
		t.Fatalf("fresh stats: %+v", s)
	}
	for i := 0; i < 5; i++ {
		ix.Descendants(ids["bib"], "title", Options{}, func(Result) bool { return true })
	}
	s := ix.Stats().Snapshot()
	if s.Queries != 5 {
		t.Errorf("queries = %d", s.Queries)
	}
	if s.Results != 10 { // two titles per query
		t.Errorf("results = %d", s.Results)
	}
	if s.LinkHops == 0 || s.Entries == 0 {
		t.Errorf("no hops/entries recorded: %+v", s)
	}
	if s.LinkHopsPerQuery() <= 0 || s.EntriesPerQuery() <= 0 {
		t.Error("per-query averages wrong")
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestAdvise(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: UnconnectedHOPI, PartitionSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Too few queries: no advice.
	if a := ix.Advise(); a.Rebuild {
		t.Errorf("premature advice: %+v", a)
	}
	// A local workload keeps the configuration.
	for i := 0; i < 20; i++ {
		ix.Descendants(ids["title2"], "title", Options{}, func(Result) bool { return true })
	}
	if a := ix.Advise(); a.Rebuild {
		t.Errorf("local load triggered rebuild: %+v", a)
	}
	// A link-heavy workload (many hops per query) triggers partition
	// growth.  Synthesise it through the counters directly — driving 17+
	// hops per query through this tiny collection is not possible.
	ix.Stats().LinkHops.Add(10000)
	a := ix.Advise()
	if !a.Rebuild {
		t.Fatalf("link-heavy load ignored: %+v", a)
	}
	if a.Config.PartitionSize != 16 {
		t.Errorf("suggested partition size = %d, want 16", a.Config.PartitionSize)
	}
	// Monolithic has nothing coarser.
	ix2, err := Build(c, Config{Kind: Monolithic})
	if err != nil {
		t.Fatal(err)
	}
	ix2.Stats().Queries.Add(100)
	ix2.Stats().LinkHops.Add(10000)
	ix2.Stats().Entries.Add(1000)
	if a := ix2.Advise(); a.Rebuild {
		t.Errorf("monolithic advised rebuild: %+v", a)
	}
	// Naive with heavy load switches to size-bounded HOPI.
	ix3, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	ix3.Stats().Queries.Add(100)
	ix3.Stats().LinkHops.Add(10000)
	ix3.Stats().Entries.Add(1000)
	a = ix3.Advise()
	if !a.Rebuild || a.Config.Kind != UnconnectedHOPI {
		t.Errorf("naive advice = %+v", a)
	}
	// The advice must be actionable: rebuilding works.
	if _, err := Build(c, a.Config); err != nil {
		t.Errorf("rebuild with advised config: %v", err)
	}
}

func TestQueryCache(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	cache := ix.NewQueryCache(2)

	gather := func(start xmlgraph.NodeID, tag string, opts Options) []Result {
		var out []Result
		cache.Descendants(start, tag, opts, func(r Result) bool {
			out = append(out, r)
			return true
		})
		return out
	}

	direct := collect(ix, ids["bib"], "title", Options{})
	first := gather(ids["bib"], "title", Options{})
	second := gather(ids["bib"], "title", Options{})
	if len(first) != len(direct) || len(second) != len(direct) {
		t.Fatalf("cache changed results: %d/%d vs %d", len(first), len(second), len(direct))
	}
	if cache.HitRate() != 0.5 { // one miss, one hit
		t.Errorf("hit rate = %g", cache.HitRate())
	}
	// Replay honors MaxResults.
	if got := gather(ids["bib"], "title", Options{MaxResults: 1}); len(got) != 1 {
		t.Errorf("MaxResults on replay: %v", got)
	}
	// Replay honors MaxDist.
	if got := gather(ids["bib"], "title", Options{MaxDist: 2}); len(got) != 1 {
		t.Errorf("MaxDist on replay: %v", got)
	}
	// Truncated queries are not cached.
	gather(ids["bib"], "author", Options{MaxResults: 1})
	if cache.Len() != 1 {
		t.Errorf("truncated query cached: len=%d", cache.Len())
	}
	// Eviction at capacity 2.
	gather(ids["bib"], "author", Options{})
	gather(ids["bib"], "cite", Options{})
	if cache.Len() != 2 {
		t.Errorf("cache len = %d, want 2", cache.Len())
	}
	// Cancelled evaluations are not cached.
	cache.Descendants(ids["bib"], "", Options{}, func(Result) bool { return false })
	if cache.Len() != 2 {
		t.Errorf("cancelled query cached: len=%d", cache.Len())
	}
}

func TestQueryCacheConcurrent(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	cache := ix.NewQueryCache(4)
	var wg sync.WaitGroup
	tags := []string{"title", "author", "cite", "article"}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				cache.Descendants(ids["bib"], tags[(i+j)%len(tags)], Options{}, func(Result) bool { return true })
			}
		}(i)
	}
	wg.Wait()
	if cache.Len() == 0 || cache.HitRate() == 0 {
		t.Errorf("len=%d hitRate=%g", cache.Len(), cache.HitRate())
	}
}

func TestAccessorsAndStrings(t *testing.T) {
	c, _ := buildSample(t)
	ix, err := Build(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Collection() != c {
		t.Error("Collection accessor wrong")
	}
	if got := ix.Config(); got.Kind != Hybrid || got.PartitionSize != 5000 {
		t.Errorf("Config = %+v", got)
	}
	for kind, want := range map[ConfigKind]string{
		Naive:           "naive",
		MaximalPPO:      "maximal-ppo",
		UnconnectedHOPI: "unconnected-hopi",
		Hybrid:          "hybrid",
		Monolithic:      "monolithic",
		ElementLevel:    "element-level",
		ConfigKind(99):  "ConfigKind(99)",
	} {
		if kind.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(kind), kind.String(), want)
		}
	}
	if _, err := Build(c, Config{Kind: ConfigKind(99)}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestExactOrderEarlyStop(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel mid-flush.
	count := 0
	ix.Descendants(ids["bib"], "", Options{ExactOrder: true}, func(r Result) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("cancelled exact-order emitted %d", count)
	}
	// MaxResults with exact order.
	count = 0
	ix.Descendants(ids["bib"], "", Options{ExactOrder: true, MaxResults: 3}, func(r Result) bool {
		count++
		return true
	})
	if count != 3 {
		t.Errorf("MaxResults with exact order emitted %d", count)
	}
}

func TestQueryCacheMinCapacity(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	cache := ix.NewQueryCache(0) // clamps to 1
	for _, tag := range []string{"title", "author"} {
		cache.Descendants(ids["bib"], tag, Options{}, func(Result) bool { return true })
	}
	if cache.Len() != 1 {
		t.Errorf("capacity-1 cache holds %d", cache.Len())
	}
	// Re-storing the same key refreshes rather than duplicates.
	cache.Descendants(ids["bib"], "author", Options{}, func(Result) bool { return true })
	if cache.Len() != 1 {
		t.Errorf("refresh duplicated: %d", cache.Len())
	}
}

func TestConcurrentQueries(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				n := 0
				ix.Descendants(ids["bib"], "title", Options{}, func(Result) bool {
					n++
					return true
				})
				if n != 2 {
					t.Errorf("concurrent query returned %d results", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAdviseDBLPDescendantsLoad pins the self-tuning verdict for the
// benchmark's desc-cold shape — top-100 descendants of the rarest record type
// and two absent ones, from the roots of the newer half of a DBLP extract —
// on the default Hybrid/5000 configuration.  The verdict was recorded at
// 97a867d, where nine pops in ten were duplicates; relaxing link targets at
// push took most of those pops away, and the link hops and entries per query
// still ask for partitions four times as large.
func TestAdviseDBLPDescendantsLoad(t *testing.T) {
	pubs := dblp.Generate(dblp.Scaled(1000))
	c := pubs.BuildGraph()
	ix, err := Build(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := len(pubs.Pubs)
	for d := n / 2; d < n; d += 5 {
		for _, tag := range []string{"article", "phdthesis", "book"} {
			ix.Descendants(c.Doc(xmlgraph.DocID(d)).Root, tag, Options{MaxResults: 100}, func(Result) bool { return true })
		}
	}
	a := ix.Advise()
	t.Logf("%v: %s", ix.Stats().Snapshot(), a.Reason)
	want := Config{Kind: Hybrid, PartitionSize: 20000, MinTreeDocs: 2}
	if !a.Rebuild || a.Config != want {
		t.Errorf("Advise = rebuild %v, %+v; recorded rebuild true, %+v", a.Rebuild, a.Config, want)
	}
}
