package shard

import (
	"time"

	"repro/internal/obs"
)

// traceBuilder assembles the router's half of a distributed trace: its own
// spans (per-gather, per-round scatter, per-shard dispatch, merge and
// re-dispatch decisions) plus the TraceFragments the shards return, folded
// into one obs.ClusterTrace — the `?trace=1` EXPLAIN payload.
//
// A builder belongs to exactly one request.  The gather loop's dispatch
// goroutines never touch it: they capture RPC timings into their shardOut
// and the single receive goroutine does all the assembly, so the builder
// needs no locking even though shard RPCs run concurrently.
type traceBuilder struct {
	start time.Time
	reqID string
	root  *obs.Span

	shards     []obs.ShardTraceSummary
	strategies map[string]obs.StrategyStats

	gathers          int
	rounds           int
	fanouts          int
	hopsSeen         int64
	hopsRedispatched int64
	hopsDeduped      int64
	budgetExhausted  bool
	eventsDropped    int64
}

// newTraceBuilder starts a request trace.  name labels the root span after
// the endpoint (descendants, connected, query).
func newTraceBuilder(reqID, name string, nShards int) *traceBuilder {
	tb := &traceBuilder{
		start:  time.Now(),
		reqID:  reqID,
		root:   &obs.Span{Name: name},
		shards: make([]obs.ShardTraceSummary, nShards),
	}
	for i := range tb.shards {
		tb.shards[i].Shard = i
	}
	return tb
}

// now is the offset from the trace start on the router's monotonic clock.
func (tb *traceBuilder) now() time.Duration { return time.Since(tb.start) }

// child opens a span under parent starting now; end closes it.
func (tb *traceBuilder) child(parent *obs.Span, name string) *obs.Span {
	sp := &obs.Span{Name: name, Start: tb.now()}
	parent.Children = append(parent.Children, sp)
	return sp
}

func (tb *traceBuilder) end(sp *obs.Span) { sp.Duration = tb.now() - sp.Start }

// beginGather opens one gather's span (a /v1/query evaluation runs several,
// one per //-step scan) and counts it.
func (tb *traceBuilder) beginGather(note string) *obs.Span {
	tb.gathers++
	sp := tb.child(tb.root, "gather")
	sp.Note = note
	return sp
}

// dispatch records one shard RPC: the round span gets a dispatch child
// covering the RPC's wall time with the shard's fragment attached, and the
// per-shard rollup accumulates the evaluation counters.  k is the limit the
// batch travelled with (0 = none); results and hops count what the shard
// returned under it, the same entries /metrics counts.  rpcStart was
// captured by the dispatch goroutine; assembly runs on the receive
// goroutine.
func (tb *traceBuilder) dispatch(round *obs.Span, o shardOut, sent, k int) {
	sp := &obs.Span{
		Name:     "dispatch",
		Start:    o.rpcStart.Sub(tb.start),
		Duration: o.rpcDur,
	}
	sp.SetAttr("shard", int64(o.sh))
	sp.SetAttr("entries", int64(sent))
	sp.SetAttr("k", int64(k))
	round.Children = append(round.Children, sp)

	s := &tb.shards[o.sh]
	s.RPCs++
	s.RPCTime += o.rpcDur
	if o.err != nil {
		s.Errors++
		sp.Note = "failed: " + o.err.Error()
		return
	}
	resp := o.resp
	sp.SetAttr("results", int64(len(resp.Results)))
	sp.SetAttr("hops", int64(len(resp.Hops)))
	s.Hops += int64(len(resp.Hops))
	s.Generation = resp.Generation
	if frag := resp.Trace; frag != nil {
		sp.Fragment = frag
		s.Pops += frag.Pops
		s.Entries += frag.Entries
		s.DupDrops += frag.DupDrops
		s.LinkHops += frag.LinkHops
		s.Results += frag.Results
		s.Probe += fragProbe(frag)
		s.EventsDropped += frag.EventsDropped
		tb.eventsDropped += frag.EventsDropped
		tb.strategies = obs.MergeStrategyStats(tb.strategies, frag.Strategies)
	} else {
		// A shard that answered without a fragment (it was not asked to
		// trace) still reports its aggregate effort in the response body.
		s.Pops += resp.Pops
		s.Entries += resp.Entries
		s.LinkHops += resp.LinkHops
	}
}

// fragProbe sums a fragment's per-strategy probe time (exact even when the
// MetaVisit list was capped, since strategies aggregate over all metas).
func fragProbe(f *obs.TraceFragment) time.Duration {
	var d time.Duration
	for _, st := range f.Strategies {
		d += st.Probe
	}
	return d
}

// finish closes the root span and folds everything into the ClusterTrace.
func (tb *traceBuilder) finish(results int64, partial bool, failed []int) *obs.ClusterTrace {
	tb.root.Duration = tb.now()
	shards := make([]obs.ShardTraceSummary, 0, len(tb.shards))
	for i := range tb.shards {
		if tb.shards[i].RPCs > 0 {
			shards = append(shards, tb.shards[i])
		}
	}
	return &obs.ClusterTrace{
		RequestID:        tb.reqID,
		Elapsed:          tb.root.Duration,
		Gathers:          tb.gathers,
		Rounds:           tb.rounds,
		Fanouts:          tb.fanouts,
		HopsSeen:         tb.hopsSeen,
		HopsRedispatched: tb.hopsRedispatched,
		HopsDeduped:      tb.hopsDeduped,
		BudgetExhausted:  tb.budgetExhausted,
		Partial:          partial,
		FailedShards:     failed,
		Results:          results,
		EventsDropped:    tb.eventsDropped,
		Shards:           shards,
		Strategies:       tb.strategies,
		Root:             tb.root,
	}
}
