package obs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// summaryWithMetas builds a Summary visiting n metas alternating between two
// strategies, with per-meta counters derived from the index so aggregate
// expectations are easy to state in closed form.
func summaryWithMetas(n int) Summary {
	s := Summary{Generation: 3, Elapsed: 5 * time.Millisecond}
	for i := 0; i < n; i++ {
		strat := "ppo"
		if i%2 == 1 {
			strat = "hopi"
		}
		s.Metas = append(s.Metas, MetaVisit{
			Meta:     int32(i),
			Strategy: strat,
			Entries:  int64(i + 1),
			Results:  int64(i),
			LinkHops: int64(i % 3),
			Probe:    time.Duration(i) * time.Microsecond,
		})
		s.Entries += int64(i + 1)
		s.Results += int64(i)
		s.LinkHops += int64(i % 3)
	}
	s.Pops = s.Entries + 7
	s.DupDrops = 11
	s.Dropped = 4
	return s
}

// TestNewFragmentStrategyBreakdown checks the fragment's core contract: the
// strategy breakdown and the scalar aggregates are computed over every
// visited meta, even when the wire-facing MetaVisit list is capped.
func TestNewFragmentStrategyBreakdown(t *testing.T) {
	const n = FragmentMetaLimit + 36
	s := summaryWithMetas(n)
	f := NewFragment(2, s)

	if f.Shard != 2 || f.Generation != 3 {
		t.Fatalf("identity fields: shard=%d gen=%d", f.Shard, f.Generation)
	}
	if f.Pops != s.Pops || f.Entries != s.Entries || f.DupDrops != s.DupDrops ||
		f.LinkHops != s.LinkHops || f.Results != s.Results || f.EventsDropped != s.Dropped {
		t.Fatalf("aggregates drifted from the summary: %+v vs %+v", f, s)
	}
	if len(f.Metas) != FragmentMetaLimit {
		t.Fatalf("meta list not capped: %d, want %d", len(f.Metas), FragmentMetaLimit)
	}
	if f.MetasDropped != n-FragmentMetaLimit {
		t.Fatalf("MetasDropped = %d, want %d", f.MetasDropped, n-FragmentMetaLimit)
	}

	// The breakdown must cover ALL n metas — the rows cut by the cap
	// included — and its totals must sum back to the fragment scalars.
	var metas int
	var entries, results, hops int64
	for _, st := range f.Strategies {
		metas += st.Metas
		entries += st.Entries
		results += st.Results
		hops += st.LinkHops
	}
	if metas != n {
		t.Fatalf("strategy breakdown covers %d metas, want %d", metas, n)
	}
	if entries != s.Entries || results != s.Results || hops != s.LinkHops {
		t.Fatalf("strategy totals (%d,%d,%d) != summary (%d,%d,%d)",
			entries, results, hops, s.Entries, s.Results, s.LinkHops)
	}
	if f.Strategies["ppo"].Metas != (n+1)/2 || f.Strategies["hopi"].Metas != n/2 {
		t.Fatalf("per-strategy meta counts: %+v", f.Strategies)
	}
}

// TestNewFragmentSmall checks the no-cap path: all metas on the wire, no
// drop counter.
func TestNewFragmentSmall(t *testing.T) {
	f := NewFragment(0, summaryWithMetas(5))
	if len(f.Metas) != 5 || f.MetasDropped != 0 {
		t.Fatalf("metas=%d dropped=%d, want 5/0", len(f.Metas), f.MetasDropped)
	}
	empty := NewFragment(1, Summary{Pops: 2})
	if empty.Metas != nil || empty.Strategies != nil {
		t.Fatalf("meta-free summary grew metas/strategies: %+v", empty)
	}
}

// TestFragmentJSONRoundTrip checks the wire shape survives encode/decode
// bit-for-bit — the fragment crosses the shard→router HTTP boundary and the
// router→flixquery one.
func TestFragmentJSONRoundTrip(t *testing.T) {
	f := NewFragment(3, summaryWithMetas(10))
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var got TraceFragment
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*f, got) {
		t.Fatalf("round trip drifted:\n in: %+v\nout: %+v", *f, got)
	}
	// Spot-check the stable JSON keys other components decode by name.
	for _, key := range []string{`"shard"`, `"elapsedNs"`, `"eventsDropped"`, `"strategies"`, `"probeNs"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("encoded fragment lacks %s: %s", key, raw)
		}
	}
}

func TestMergeStrategyStats(t *testing.T) {
	a := map[string]StrategyStats{
		"ppo":  {Metas: 2, Entries: 10, Results: 4, Probe: time.Millisecond},
		"apex": {Metas: 1, Entries: 3},
	}
	b := map[string]StrategyStats{
		"ppo": {Metas: 1, Entries: 5, Results: 1, LinkHops: 2, Probe: time.Millisecond},
		"tc":  {Metas: 4},
	}
	got := MergeStrategyStats(nil, a)
	got = MergeStrategyStats(got, b)
	want := map[string]StrategyStats{
		"ppo":  {Metas: 3, Entries: 15, Results: 5, LinkHops: 2, Probe: 2 * time.Millisecond},
		"apex": {Metas: 1, Entries: 3},
		"tc":   {Metas: 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %+v, want %+v", got, want)
	}
	if MergeStrategyStats(nil, nil) != nil {
		t.Fatal("merging nothing into nil allocated a map")
	}
}

// TestClusterTraceRender checks the human EXPLAIN covers every section:
// header counts, degradation notes, per-shard table, strategy breakdown,
// the drop note and the span tree with an attached fragment.
func TestClusterTraceRender(t *testing.T) {
	frag := NewFragment(1, summaryWithMetas(3))
	root := &Span{Name: "descendants", Duration: 4 * time.Millisecond}
	gather := &Span{Name: "gather", Note: "tag=actor starts=1", Duration: 3 * time.Millisecond}
	round := &Span{Name: "round", Attrs: map[string]int64{"round": 1, "shards": 2}}
	round.Children = append(round.Children, &Span{Name: "dispatch", Fragment: frag, Attrs: map[string]int64{"shard": 1}})
	gather.Children = append(gather.Children, round)
	root.Children = append(root.Children, gather)

	ct := ClusterTrace{
		RequestID:        "req-9",
		Elapsed:          4 * time.Millisecond,
		Gathers:          1,
		Rounds:           2,
		Fanouts:          3,
		HopsSeen:         40,
		HopsRedispatched: 25,
		HopsDeduped:      15,
		HopsBounded:      6,
		BudgetExhausted:  true,
		Partial:          true,
		FailedShards:     []int{2},
		Results:          17,
		EventsDropped:    4,
		Shards: []ShardTraceSummary{
			{Shard: 0, RPCs: 2, Pops: 30, Results: 9},
			{Shard: 1, RPCs: 1, Errors: 1, Pops: 12, Results: 8, EventsDropped: 4},
		},
		Strategies: frag.Strategies,
		Root:       root,
	}
	out := ct.Render()
	for _, want := range []string{
		"1 gathers, 2 rounds, 3 fanouts",
		"40 hops seen (25 redispatched, 15 deduped), 6 bounded",
		"[id req-9]",
		"hop budget exhausted",
		"PARTIAL results: shards [2] failed",
		"strategy breakdown:",
		"ppo:",
		"(4 shard trace events dropped",
		"spans:",
		"gather (tag=actor starts=1)",
		"dispatch",
		"{shard 1:",
		"[round=1 shards=2]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
	// One table row per shard, shard column first.
	for _, s := range ct.Shards {
		if !strings.Contains(out, fmt.Sprintf("\n%-6d %5d", s.Shard, s.RPCs)) {
			t.Errorf("Render() missing the table row for shard %d:\n%s", s.Shard, out)
		}
	}
}

// TestClusterTraceJSONRoundTrip checks the ?trace=1 payload decodes back
// losslessly — flixquery consumes exactly this.
func TestClusterTraceJSONRoundTrip(t *testing.T) {
	ct := ClusterTrace{
		RequestID:   "abc",
		Gathers:     2,
		Rounds:      3,
		HopsSeen:    9,
		HopsBounded: 4,
		Shards:      []ShardTraceSummary{{Shard: 0, RPCs: 1, Pops: 5}},
		Root: &Span{Name: "query", Children: []*Span{
			{Name: "gather", Attrs: map[string]int64{"rounds": 3}},
		}},
	}
	raw, err := json.Marshal(ct)
	if err != nil {
		t.Fatal(err)
	}
	var got ClusterTrace
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ct, got) {
		t.Fatalf("round trip drifted:\n in: %+v\nout: %+v", ct, got)
	}
	if !strings.Contains(string(raw), `"spans"`) || !strings.Contains(string(raw), `"shards"`) {
		t.Fatalf("cluster trace JSON lacks its marker keys: %s", raw)
	}
}

// TestWriteGoRuntimeText checks the runtime gauges render well-formed
// non-negative samples with HELP/TYPE pairs.
func TestWriteGoRuntimeText(t *testing.T) {
	var b strings.Builder
	WriteGoRuntimeText(func(format string, args ...any) { fmt.Fprintf(&b, format, args...) })
	out := b.String()
	for _, m := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "go_gc_cycles_total", "go_gc_pause_seconds_total"} {
		if !strings.Contains(out, "# HELP "+m+" ") || !strings.Contains(out, "# TYPE "+m+" ") {
			t.Errorf("missing HELP/TYPE for %s:\n%s", m, out)
		}
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, m+" ") {
				found = true
				if strings.HasPrefix(line, m+" -") {
					t.Errorf("negative sample: %q", line)
				}
			}
		}
		if !found {
			t.Errorf("no sample line for %s:\n%s", m, out)
		}
	}
}
