package flix

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// collect runs an evaluation function and records its full result stream.
func collectRun(run func(fn Emit)) []Result {
	var out []Result
	run(func(r Result) bool {
		out = append(out, r)
		return true
	})
	return out
}

// hotpathConfigs are the framework configurations the differential suite
// cross-checks; small partitions force plenty of runtime links.
func hotpathConfigs() []Config {
	return []Config{
		{Kind: Naive},
		{Kind: MaximalPPO},
		{Kind: UnconnectedHOPI, PartitionSize: 40},
		{Kind: Hybrid, PartitionSize: 40},
	}
}

// TestEvaluatorMatchesReference is the differential proof for the rewritten
// hot path: across collection families, configurations and option sets, the
// new evaluator's result stream must be exactly identical — order included —
// to the frozen pre-optimization evaluator kept in reference.go.
func TestEvaluatorMatchesReference(t *testing.T) {
	optSets := []Options{
		{},
		{MaxResults: 7},
		{MaxDist: 3},
		{IncludeSelf: true},
		{ExactOrder: true},
		{DupSeenSet: true},
		{MaxResults: 5, MaxDist: 4, IncludeSelf: true},
		{ExactOrder: true, MaxResults: 9},
	}
	tags := []string{"", "a", "b", "c"}
	for _, fam := range testutil.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			c := testutil.Generate(fam, seed, 12, 20, 25)
			for _, cfg := range hotpathConfigs() {
				ix, err := Build(c, cfg)
				if err != nil {
					t.Fatalf("%s seed %d %v: %v", fam, seed, cfg.Kind, err)
				}
				step := c.NumNodes()/5 + 1
				for s := 0; s < c.NumNodes(); s += step {
					start := xmlgraph.NodeID(s)
					for _, tag := range tags {
						for oi, opts := range optSets {
							got := collectRun(func(fn Emit) { ix.Descendants(start, tag, opts, fn) })
							want := collectRun(func(fn Emit) { ix.ReferenceDescendants(start, tag, opts, fn) })
							diffStreams(t, fmt.Sprintf("%s seed %d %v start %d tag %q opts#%d",
								fam, seed, cfg.Kind, start, tag, oi), got, want)
						}
					}
				}
				for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", ""}} {
					for oi, opts := range optSets {
						got := collectRun(func(fn Emit) { ix.TypeDescendants(pair[0], pair[1], opts, fn) })
						want := collectRun(func(fn Emit) { ix.ReferenceTypeDescendants(pair[0], pair[1], opts, fn) })
						diffStreams(t, fmt.Sprintf("%s seed %d %v type %s//%s opts#%d",
							fam, seed, cfg.Kind, pair[0], pair[1], oi), got, want)
					}
				}
			}
		}
	}
}

func diffStreams(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: stream length %d, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

// TestEmitStopMatchesReference checks the early-stop exit path: an Emit
// callback returning false must leave both evaluators with the same prefix.
func TestEmitStopMatchesReference(t *testing.T) {
	c := testutil.Generate(testutil.Linked, 5, 15, 25, 30)
	ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	for stop := 1; stop <= 9; stop += 4 {
		take := func(run func(fn Emit)) []Result {
			var out []Result
			run(func(r Result) bool {
				out = append(out, r)
				return len(out) < stop
			})
			return out
		}
		got := take(func(fn Emit) { ix.Descendants(0, "a", Options{}, fn) })
		want := take(func(fn Emit) { ix.ReferenceDescendants(0, "a", Options{}, fn) })
		diffStreams(t, fmt.Sprintf("stop after %d", stop), got, want)
	}
}

// checkAllocBudgets holds every driver of the evaluator core to its
// allocation budget on a warm scratch pool: an untraced descendants or
// ancestors query, a connection test and a probe pulled dry band by band must
// not allocate at all (nothing else holds that zero), and a partial
// evaluation may allocate only the two slices it returns.
func checkAllocBudgets(t *testing.T, ix *Index, backend string) {
	t.Helper()
	drop := func(Result) bool { return true }
	descendants := func() { ix.Descendants(0, "a", Options{MaxResults: 50}, drop) }
	var p Probe
	probe := func() {
		ix.StartProbe(&p, 0, "a", Options{})
		for band, more := int32(0), true; more; {
			band = NextBand(band, 0)
			more = p.Next(band, drop)
		}
		p.Close()
	}
	entries := []FrontierEntry{{Node: 0}}
	owned := func(mi int32) bool { return mi%2 == 0 }
	partial := func() { mustPartial(ix, entries, "a", PartialOptions{Owned: owned}) }
	last := xmlgraph.NodeID(ix.coll.NumNodes() - 1)
	connected := func() { ix.ConnectedOpts(0, last, Options{}) }
	ancestors := func() { ix.Ancestors(last, "a", Options{MaxResults: 50}, drop) }
	for _, c := range []struct {
		name   string
		run    func()
		budget float64
	}{
		{"untraced descendants", descendants, 0},
		{"probe band cycle", probe, 0},
		{"partial descendants", partial, 2},
		{"connection test", connected, 0},
		{"ancestors", ancestors, 0},
	} {
		for i := 0; i < 4; i++ { // warm the pool, tag caches and lazy structures
			c.run()
		}
		if avg := testing.AllocsPerRun(50, c.run); avg > c.budget {
			t.Errorf("%s %s allocated %.1f allocs/op on a warm pool, budget %.0f", backend, c.name, avg, c.budget)
		}
	}
}

// TestDescendantsAllocBudget enforces the hot-path acceptance bar at test
// granularity on the heap build.
func TestDescendantsAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector makes sync.Pool drop cached items at random")
	}
	c := testutil.Generate(testutil.Linked, 3, 20, 25, 40)
	ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	checkAllocBudgets(t, ix, "heap")
}

// TestDescendantsAllocBudgetMmap holds the mmap-backed generation to the
// same bar, raw and compressed: a v2 snapshot must not cost the hot path any
// allocations either — the varint posting cursors decode in place and the
// merge scratch is pooled exactly like the heap build's.
func TestDescendantsAllocBudgetMmap(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector makes sync.Pool drop cached items at random")
	}
	c := testutil.Generate(testutil.Linked, 3, 20, 25, 40)
	built, err := Build(c, Config{Kind: Hybrid, PartitionSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	backends := driverBackends(t, c, built)
	if !backends["compressed"].StorageInfo().Compressed {
		t.Fatal("no section of the compressed backend is compressed")
	}
	for _, name := range []string{"mapped", "compressed"} {
		checkAllocBudgets(t, backends[name], name)
	}
}

// TestScratchPoolSwapRace hammers the pooled scratch state from concurrent
// queries while the live index is hot-swapped between generations, as the
// reindexer does.  Each Index owns its own pool, so queries running against
// a retiring generation keep their scratch valid while new queries already
// use the replacement.  Run under -race this proves the pooling introduces
// no sharing between generations.
func TestScratchPoolSwapRace(t *testing.T) {
	c := testutil.Generate(testutil.Linked, 9, 15, 20, 30)
	build := func(ps int) *Index {
		ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: ps})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	gens := []*Index{build(30), build(60), build(120)}
	want := len(collectRun(func(fn Emit) { gens[0].Descendants(0, "a", Options{}, fn) }))

	var cur atomic.Pointer[Index]
	cur.Store(gens[0])
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 8)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ix := cur.Load()
				n := 0
				ix.Descendants(0, "a", Options{}, func(Result) bool { n++; return true })
				if n != want {
					errs <- fmt.Sprintf("worker %d: %d results, want %d", w, n, want)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 60; i++ {
		cur.Store(gens[i%len(gens)])
	}
	close(stop)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}
