package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file defines the distributed-trace types shared by the shard servers
// and the router.  A shard that evaluates a partial frontier under a Trace
// folds it into a TraceFragment — a compact, JSON-serializable aggregate
// that rides back inside EvalResponse — and the router assembles fragments
// plus its own dispatch/merge spans into a ClusterTrace, the `?trace=1`
// EXPLAIN payload of flixd-router.  Everything here is plain data: the
// package stays dependency-free so both internal/shard and cmd/flixquery
// can decode the same wire shapes.

// FragmentMetaLimit caps the per-meta-document detail rows a fragment
// carries on the wire.  Aggregates and the strategy breakdown are computed
// over ALL visited metas before the cap applies, so totals stay exact;
// MetasDropped records how many rows were cut.
const FragmentMetaLimit = 64

// StrategyStats aggregates trace activity by indexing strategy (ppo, hopi,
// apex, tc, ...) — the per-strategy view the FliX framework is built
// around: which index family did the work, and how long its probes took.
type StrategyStats struct {
	Metas    int           `json:"metas"`
	Entries  int64         `json:"entries"`
	Results  int64         `json:"results"`
	LinkHops int64         `json:"linkHops"`
	Probe    time.Duration `json:"probeNs"`
}

// TraceFragment is one shard's share of a distributed trace: the Summary
// of the bounded Trace its partial-frontier evaluation ran under, rolled
// up for the wire.  It carries no raw events — only meta-visit aggregates,
// the strategy breakdown, and the drop counter — so its size is bounded by
// FragmentMetaLimit regardless of query size.
type TraceFragment struct {
	Shard         int                      `json:"shard"`
	Generation    uint64                   `json:"generation,omitempty"`
	Elapsed       time.Duration            `json:"elapsedNs"`
	Pops          int64                    `json:"pops"`
	Entries       int64                    `json:"entries"`
	DupDrops      int64                    `json:"dupDrops"`
	LinkHops      int64                    `json:"linkHops"`
	Results       int64                    `json:"results"`
	EventsDropped int64                    `json:"eventsDropped,omitempty"`
	Metas         []MetaVisit              `json:"metas,omitempty"`
	MetasDropped  int                      `json:"metasDropped,omitempty"`
	Strategies    map[string]StrategyStats `json:"strategies,omitempty"`
}

// NewFragment folds a trace summary into the wire fragment for one shard.
// The strategy breakdown is computed over every visited meta document
// before the MetaVisit list is capped at FragmentMetaLimit.
func NewFragment(shard int, s Summary) *TraceFragment {
	f := &TraceFragment{
		Shard:         shard,
		Generation:    s.Generation,
		Elapsed:       s.Elapsed,
		Pops:          s.Pops,
		Entries:       s.Entries,
		DupDrops:      s.DupDrops,
		LinkHops:      s.LinkHops,
		Results:       s.Results,
		EventsDropped: s.Dropped,
	}
	if len(s.Metas) > 0 {
		f.Strategies = make(map[string]StrategyStats, 4)
		for _, m := range s.Metas {
			st := f.Strategies[m.Strategy]
			st.Metas++
			st.Entries += m.Entries
			st.Results += m.Results
			st.LinkHops += m.LinkHops
			st.Probe += m.Probe
			f.Strategies[m.Strategy] = st
		}
		metas := s.Metas
		if len(metas) > FragmentMetaLimit {
			f.MetasDropped = len(metas) - FragmentMetaLimit
			metas = metas[:FragmentMetaLimit]
		}
		f.Metas = append([]MetaVisit(nil), metas...)
	}
	return f
}

// MergeStrategyStats folds src into dst (allocating dst on first use) and
// returns it.  Both the fragment builder and the router's cluster rollup
// use it so the two breakdowns cannot drift.
func MergeStrategyStats(dst, src map[string]StrategyStats) map[string]StrategyStats {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]StrategyStats, len(src))
	}
	for k, v := range src {
		st := dst[k]
		st.Metas += v.Metas
		st.Entries += v.Entries
		st.Results += v.Results
		st.LinkHops += v.LinkHops
		st.Probe += v.Probe
		dst[k] = st
	}
	return dst
}

// Span is one timed node of the router's trace tree.  Start is the offset
// from the root's start on the router's monotonic clock; shard-side time
// lives in the attached Fragment (shard clocks are never compared).
type Span struct {
	Name     string           `json:"name"`
	Note     string           `json:"note,omitempty"`
	Start    time.Duration    `json:"startNs"`
	Duration time.Duration    `json:"durNs"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Fragment *TraceFragment   `json:"fragment,omitempty"`
	Children []*Span          `json:"children,omitempty"`
}

// SetAttr records one integer attribute on the span.
func (sp *Span) SetAttr(key string, v int64) {
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]int64, 4)
	}
	sp.Attrs[key] = v
}

// ShardTraceSummary rolls one shard's fragments up across every round of a
// gather: RPC counts and wall time from the router's side, evaluation
// counters from the shard's fragments.
type ShardTraceSummary struct {
	Shard         int           `json:"shard"`
	RPCs          int           `json:"rpcs"`
	Errors        int           `json:"errors,omitempty"`
	RPCTime       time.Duration `json:"rpcNs"`
	Pops          int64         `json:"pops"`
	Entries       int64         `json:"entries"`
	DupDrops      int64         `json:"dupDrops"`
	LinkHops      int64         `json:"linkHops"`
	Results       int64         `json:"results"`
	Hops          int64         `json:"hops"` // frontier entries returned for foreign metas
	Probe         time.Duration `json:"probeNs"`
	EventsDropped int64         `json:"eventsDropped,omitempty"`
	Generation    uint64        `json:"generation,omitempty"`
}

// ClusterTrace is the merged router-side view of one scatter-gather query:
// outer-Dijkstra round counts, hop accounting, per-shard rollups, the
// cluster-wide strategy breakdown, and the span tree with per-dispatch
// fragments attached.  It is the `?trace=1` response body member on
// flixd-router, mirroring Summary on a single flixd.
type ClusterTrace struct {
	RequestID        string                   `json:"requestId,omitempty"`
	Elapsed          time.Duration            `json:"elapsedNs"`
	Gathers          int                      `json:"gathers"`
	Rounds           int                      `json:"rounds"`
	Fanouts          int                      `json:"fanouts"`
	HopsSeen         int64                    `json:"hopsSeen"`
	HopsRedispatched int64                    `json:"hopsRedispatched"`
	HopsDeduped      int64                    `json:"hopsDeduped"`
	HopsBounded      int64                    `json:"hopsBounded"`
	BudgetExhausted  bool                     `json:"budgetExhausted,omitempty"`
	Partial          bool                     `json:"partial,omitempty"`
	FailedShards     []int                    `json:"failedShards,omitempty"`
	Results          int64                    `json:"results"`
	EventsDropped    int64                    `json:"eventsDropped,omitempty"`
	Shards           []ShardTraceSummary      `json:"shards"`
	Strategies       map[string]StrategyStats `json:"strategies,omitempty"`
	Root             *Span                    `json:"spans,omitempty"`
}

// Render writes the human-readable cluster EXPLAIN — the distributed
// counterpart of Summary.Render that flixquery prints when -explain runs
// against a router.
func (c ClusterTrace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster trace: %d gathers, %d rounds, %d fanouts, %d hops seen (%d redispatched, %d deduped), %d bounded, %d results in %s",
		c.Gathers, c.Rounds, c.Fanouts, c.HopsSeen, c.HopsRedispatched, c.HopsDeduped, c.HopsBounded,
		c.Results, c.Elapsed.Round(time.Microsecond))
	if c.RequestID != "" {
		fmt.Fprintf(&b, " [id %s]", c.RequestID)
	}
	b.WriteByte('\n')
	if c.BudgetExhausted {
		b.WriteString("hop budget exhausted: results may omit distant matches\n")
	}
	if c.Partial {
		fmt.Fprintf(&b, "PARTIAL results: shards %v failed\n", c.FailedShards)
	}
	if len(c.Shards) > 0 {
		fmt.Fprintf(&b, "%-6s %5s %5s %12s %8s %8s %8s %8s %6s %12s %8s\n",
			"shard", "rpcs", "errs", "rpc-time", "pops", "entries", "results", "hops", "drops", "probe", "gen")
		for _, s := range c.Shards {
			fmt.Fprintf(&b, "%-6d %5d %5d %12s %8d %8d %8d %8d %6d %12s %8d\n",
				s.Shard, s.RPCs, s.Errors, s.RPCTime.Round(time.Microsecond),
				s.Pops, s.Entries, s.Results, s.Hops, s.EventsDropped,
				s.Probe.Round(time.Microsecond), s.Generation)
		}
	}
	if len(c.Strategies) > 0 {
		names := make([]string, 0, len(c.Strategies))
		for k := range c.Strategies {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteString("strategy breakdown: ")
		for i, k := range names {
			st := c.Strategies[k]
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s: %d metas, %d entries, %d results, %s probe",
				k, st.Metas, st.Entries, st.Results, st.Probe.Round(time.Microsecond))
		}
		b.WriteByte('\n')
	}
	if c.EventsDropped > 0 {
		fmt.Fprintf(&b, "(%d shard trace events dropped beyond per-shard caps; aggregates stay exact)\n", c.EventsDropped)
	}
	if c.Root != nil {
		b.WriteString("spans:\n")
		renderSpan(&b, c.Root, 1)
	}
	return b.String()
}

// renderSpan prints one span line plus its subtree, two spaces per level.
func renderSpan(b *strings.Builder, sp *Span, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s", sp.Name)
	if sp.Note != "" {
		fmt.Fprintf(b, " (%s)", sp.Note)
	}
	fmt.Fprintf(b, " +%s %s", sp.Start.Round(time.Microsecond), sp.Duration.Round(time.Microsecond))
	if len(sp.Attrs) > 0 {
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(" [")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(b, "%s=%d", k, sp.Attrs[k])
		}
		b.WriteString("]")
	}
	if f := sp.Fragment; f != nil {
		fmt.Fprintf(b, " {shard %d: %d pops, %d results, %d dropped}", f.Shard, f.Pops, f.Results, f.EventsDropped)
	}
	b.WriteByte('\n')
	for _, ch := range sp.Children {
		renderSpan(b, ch, depth+1)
	}
}
