package flix

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/xmlgraph"
)

// TestDescendantsTraced runs a multi-meta-document query with a tracer and
// checks the trace agrees with the engine counters and the actual results.
func TestDescendantsTraced(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	before := ix.Stats().Snapshot()
	tr := obs.NewTrace(0)
	results := collect(ix, ids["bib"], "title", Options{Tracer: tr})
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2 (title1 + linked title2)", len(results))
	}
	after := ix.Stats().Snapshot()
	s := tr.Summary(true)
	if s.Pops != after.Pops-before.Pops {
		t.Errorf("trace pops = %d, stats delta = %d", s.Pops, after.Pops-before.Pops)
	}
	if s.Entries != after.Entries-before.Entries {
		t.Errorf("trace entries = %d, stats delta = %d", s.Entries, after.Entries-before.Entries)
	}
	if s.LinkHops != after.LinkHops-before.LinkHops {
		t.Errorf("trace linkHops = %d, stats delta = %d", s.LinkHops, after.LinkHops-before.LinkHops)
	}
	if s.Results != int64(len(results)) {
		t.Errorf("trace results = %d, want %d", s.Results, len(results))
	}
	// Naive puts each document in its own meta document; the query starts
	// in a's and crosses the art2 -> paper link into b's.
	if len(s.Metas) != 2 {
		t.Fatalf("meta visits = %d, want 2:\n%s", len(s.Metas), s.Render())
	}
	for _, m := range s.Metas {
		if m.Strategy == "" {
			t.Errorf("meta %d missing strategy", m.Meta)
		}
	}
	if s.LinkHops == 0 {
		t.Error("no link hops recorded for a cross-document query")
	}
	if out := s.Render(); out == "" {
		t.Error("empty Render")
	}
}

// TestTracedStatsDupDrops checks DupDropped accounting: two runtime links
// converging on the same meta document force a duplicate drop (the second
// target is already covered by the first entry point).
func TestTracedStatsDupDrops(t *testing.T) {
	c := xmlgraph.NewCollection()
	a := c.NewDocument("a")
	root := a.Enter("r", "")
	l1 := a.AddLeaf("x", "")
	l2 := a.AddLeaf("x", "")
	a.Leave()
	a.Close()
	b := c.NewDocument("b")
	pb := b.Enter("p", "")
	tb := b.AddLeaf("t", "")
	b.Leave()
	b.Close()
	c.AddLink(l1, pb, xmlgraph.EdgeInterLink)
	c.AddLink(l2, tb, xmlgraph.EdgeInterLink)
	c.Freeze()
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(0)
	// Both links push frontier entries at distance 2; the p entry covers
	// the later t entry, which is dropped.
	n := 0
	ix.Descendants(root, "t", Options{Tracer: tr}, func(Result) bool {
		n++
		return true
	})
	s := tr.Summary(false)
	snap := ix.Stats().Snapshot()
	if snap.DupDropped < 1 {
		t.Errorf("stats DupDropped = %d, want >= 1", snap.DupDropped)
	}
	if s.DupDrops < 1 {
		t.Errorf("trace dupDrops = %d, want >= 1", s.DupDrops)
	}
	if snap.Pops < snap.Entries+snap.DupDropped {
		t.Errorf("pops (%d) < entries (%d) + dropped (%d)", snap.Pops, snap.Entries, snap.DupDropped)
	}
}

// TestBuildStats checks that the build phase records its phase timings.
func TestBuildStats(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	bs := ix.BuildStats()
	if bs.IndexBuild <= 0 {
		t.Errorf("IndexBuild = %v, want > 0", bs.IndexBuild)
	}
	if bs.Partition <= 0 || bs.MetaBuild <= 0 {
		t.Errorf("the build that decomposed reports Partition = %v, MetaBuild = %v, want > 0", bs.Partition, bs.MetaBuild)
	}
	// Partition and MetaBuild are what the call spent: a second generation
	// over the collection finds the decomposition and spends nothing.
	shared, err := Build(c, Config{Kind: Hybrid, PartitionSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sb := shared.BuildStats(); sb.Partition != 0 || sb.MetaBuild != 0 || sb.IndexBuild <= 0 {
		t.Errorf("build over a shared decomposition: Partition = %v, MetaBuild = %v, IndexBuild = %v, want 0, 0, > 0",
			sb.Partition, sb.MetaBuild, sb.IndexBuild)
	}
	if len(bs.Strategies) == 0 {
		t.Fatal("no per-strategy build stats")
	}
	total := 0
	for name, sb := range bs.Strategies {
		if sb.Metas <= 0 {
			t.Errorf("strategy %s: %d metas", name, sb.Metas)
		}
		if sb.Max > sb.Total {
			t.Errorf("strategy %s: max %v > total %v", name, sb.Max, sb.Total)
		}
		total += sb.Metas
	}
	if total != ix.NumMetaDocuments() {
		t.Errorf("strategy meta counts sum to %d, want %d", total, ix.NumMetaDocuments())
	}
	if bs.String() == "" {
		t.Error("empty BuildStats.String")
	}
	if got := ix.StrategyAt(ids["bib"]); got == "" {
		t.Error("StrategyAt returned empty for a valid node")
	}
	if got := ix.StrategyAt(-1); got != "" {
		t.Errorf("StrategyAt(-1) = %q, want empty", got)
	}
}

// TestQueryCacheTraced checks cache hit/miss events reach the tracer.
func TestQueryCacheTraced(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	qc := ix.NewQueryCache(4)
	run := func(tr *obs.Trace) {
		qc.Descendants(ids["bib"], "title", Options{Tracer: tr}, func(Result) bool { return true })
	}
	miss := obs.NewTrace(0)
	run(miss)
	if s := miss.Summary(false); s.CacheHit {
		t.Error("first lookup reported a cache hit")
	}
	hit := obs.NewTrace(0)
	run(hit)
	if s := hit.Summary(false); !s.CacheHit {
		t.Error("second lookup did not report a cache hit")
	}
}

// TestConnectDriversCountedAndTraced holds the drivers of connect.go to what
// every driver of the core owes the index: each evaluation leaves through
// finish, so it moves the query statistics, and the ones that take Options
// hand their pops, entries and link hops to Options.Tracer.  Naive indexing
// puts a and b in meta documents of their own, so bib -> title2 and its
// reverse both cross the art2 -> paper link.
func TestConnectDriversCountedAndTraced(t *testing.T) {
	c, ids := buildSample(t)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	drop := func(Result) bool { return true }
	for _, d := range []struct {
		name    string
		queries int64
		run     func(tr *obs.Trace)
	}{
		{"ConnectedOpts", 1, func(tr *obs.Trace) {
			if dist, ok := ix.ConnectedOpts(ids["bib"], ids["title2"], Options{Tracer: tr}); !ok || dist != 3 {
				t.Errorf("ConnectedOpts(bib, title2) = %d %v, want 3 true", dist, ok)
			}
		}},
		{"Ancestors", 1, func(tr *obs.Trace) { ix.Ancestors(ids["title2"], "", Options{Tracer: tr}, drop) }},
		{"ConnectedBidirectional", 2, func(*obs.Trace) { // takes no Options: counted, not traced
			if dist, ok := ix.ConnectedBidirectional(ids["bib"], ids["title2"], 0); !ok || dist != 3 {
				t.Errorf("ConnectedBidirectional(bib, title2) = %d %v, want 3 true", dist, ok)
			}
		}},
	} {
		tr := obs.NewTrace(0)
		work := statsDelta(ix, func() { d.run(tr) })
		if work.Queries != d.queries || work.Pops < 2 || work.Entries < 2 || work.LinkHops < 1 {
			t.Errorf("%s moved the statistics by %+v, want %d queries, pops and entries in both meta documents and a link hop", d.name, work, d.queries)
		}
		if d.name == "ConnectedBidirectional" {
			continue
		}
		s := tr.Summary(true)
		if s.Pops != work.Pops || s.Entries != work.Entries || s.LinkHops != work.LinkHops {
			t.Errorf("%s traced %d pops, %d entries, %d link hops; the statistics moved by %+v", d.name, s.Pops, s.Entries, s.LinkHops, work)
		}
		kinds := map[string]bool{}
		for _, e := range s.Events {
			kinds[e.Kind.String()] = true
		}
		for _, k := range []string{"pop", "entry", "link-hop"} {
			if !kinds[k] {
				t.Errorf("%s emitted no %q event; kinds seen: %v", d.name, k, kinds)
			}
		}
	}
}
