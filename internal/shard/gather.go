package shard

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/flix"
	"repro/internal/front"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/xmlgraph"
)

// This file is the scatter-gather evaluator: the router-side half of the
// paper's priority-queue evaluation.  Each shard answers a frontier batch
// with exact local results plus the frontier entries that crossed into
// foreign meta documents ("hops"); the router is the outer Dijkstra loop —
// it dedupes hops against the best distance seen per node, re-dispatches
// them to their owning shards in rounds, and min-merges the per-shard
// sorted result runs into one stream.
//
// Because both sides relax with exact local distances and keep per-node
// minima, the merged stream carries exact global shortest distances — the
// differential harness checks it element-for-element against the BFS
// oracle.

// shardOut carries one shard RPC's outcome from its dispatch goroutine to
// the gather loop's receive goroutine.  The RPC timings ride along so the
// trace builder (single-goroutine, on the receive side) can build dispatch
// spans without any locking.
type shardOut struct {
	sh       int
	resp     *EvalResponse
	err      error
	rpcStart time.Time
	rpcDur   time.Duration
}

// gatherOut is one scatter-gather evaluation's outcome.
type gatherOut struct {
	// results is min-distance-per-node, sorted by (dist, node).
	results []flix.FrontierEntry
	// partial reports dropped work: failed shards, a truncated shard
	// evaluation, an exhausted hop budget or an expired deadline.
	partial bool
	// failed lists shard IDs whose batches were dropped (sorted).
	failed []int
	// rounds / fanouts / hopsDispatched describe the fan-out shape.
	rounds         int
	fanouts        int
	hopsDispatched int
}

// gatherDescendants runs start//tag across the cluster and applies the
// single-node self policy: the start node is reported only under
// includeSelf (at distance 0), never as its own cycle-descendant.
func (rt *Router) gatherDescendants(ctx context.Context, reqID string, start xmlgraph.NodeID, tag string, maxDist int32, needK int, includeSelf bool, tb *traceBuilder) gatherOut {
	if needK > 0 && !includeSelf {
		// The merged stream may contain start (dist 0, dropped below);
		// widen the early-stop target so dropping it still leaves needK.
		// needK == 0 means unbounded and must stay 0 (no early stop).
		needK++
	}
	g := rt.gather(ctx, reqID, []flix.FrontierEntry{{Node: start, Dist: 0}}, tag, maxDist, needK, xmlgraph.InvalidNode, tb)
	if !includeSelf {
		for i, e := range g.results {
			if e.Node == start {
				g.results = append(g.results[:i:i], g.results[i+1:]...)
				break
			}
		}
	}
	return g
}

// gather runs the rounds loop.  needK > 0 enables the top-k early stop
// (once needK results sit strictly below the pending-frontier watermark,
// no later round can displace them) and travels to the shards as
// EvalRequest.K, so no shard computes, sorts or ships more than the gather
// can use (DESIGN §3g item 3 has the proof that neither the answer nor the
// round the stop fires in changes); results is then the needK-prefix.
// target != InvalidNode enables the connectivity early stop (the target's
// distance is final once it is at or below the watermark).  Early stops are
// exact, not partial.
//
// tb, when non-nil, makes this a traced gather: every shard RPC carries
// the trace flag, fragments come back in the responses, and the builder
// grows a per-round span tree.  A nil tb is the default and adds no work
// to the loop beyond the pointer checks.
func (rt *Router) gather(ctx context.Context, reqID string, starts []flix.FrontierEntry, tag string, maxDist int32, needK int, target xmlgraph.NodeID, tb *traceBuilder) gatherOut {
	topo := rt.topo.Load()
	var out gatherOut
	if topo == nil {
		out.partial = true
		return out
	}
	var gspan *obs.Span
	if tb != nil {
		gspan = tb.beginGather(fmt.Sprintf("tag=%s starts=%d", tag, len(starts)))
		defer func() { tb.end(gspan) }()
	}
	nShards := len(rt.shards)
	// best is the lazy-deletion Dijkstra map: smallest distance at which
	// each node has entered the cross-shard frontier.
	best := make(map[xmlgraph.NodeID]int32, len(starts))
	resultMin := make(map[xmlgraph.NodeID]int32)
	failed := make(map[int]bool)
	dispatched := 0
	budgetHit := false

	batches := make([][]flix.FrontierEntry, nShards)
	stage := func(e flix.FrontierEntry) {
		if e.Dist < 0 || (maxDist > 0 && e.Dist > maxDist) {
			return
		}
		if d, ok := best[e.Node]; ok && d <= e.Dist {
			rt.hopsDeduped.Add(1)
			if tb != nil {
				tb.hopsDeduped++
			}
			return
		}
		best[e.Node] = e.Dist
		ow := rt.ring.Owner(topo.metaOf[e.Node])
		batches[ow] = append(batches[ow], e)
	}
	for _, e := range starts {
		stage(e)
	}

	for {
		if ctx.Err() != nil {
			out.partial = true
			break
		}
		// The watermark is the smallest pending frontier distance: every
		// result a future round can produce sits at or above it.
		watermark := int32(-1)
		active := 0
		for sh, b := range batches {
			if len(b) == 0 {
				continue
			}
			if failed[sh] {
				// The shard already failed this query; its share of the
				// frontier is lost — sound subset, flagged partial.
				out.partial = true
				batches[sh] = nil
				continue
			}
			active++
			for _, e := range b {
				if watermark < 0 || e.Dist < watermark {
					watermark = e.Dist
				}
			}
		}
		if active == 0 {
			break
		}
		if needK > 0 && countBelow(resultMin, watermark) >= needK {
			rt.earlyStops.Add(1)
			break
		}
		if target != xmlgraph.InvalidNode {
			if d, ok := resultMin[target]; ok && d <= watermark {
				rt.earlyStops.Add(1)
				break
			}
		}

		out.rounds++
		var rspan *obs.Span
		var sent map[int]int // per shard, the entries dispatched to it; traced only
		if tb != nil {
			sent = make(map[int]int, active)
			tb.rounds++
			rspan = tb.child(gspan, "round")
			rspan.SetAttr("round", int64(out.rounds))
			rspan.SetAttr("shards", int64(active))
			rspan.SetAttr("watermark", int64(watermark))
		}
		outs := make(chan shardOut, active)
		for sh, b := range batches {
			if len(b) == 0 {
				continue
			}
			out.fanouts++
			if tb != nil {
				tb.fanouts++
				sent[sh] = len(b)
			}
			go func(sh int, entries []flix.FrontierEntry) {
				t0 := time.Now()
				resp, err := rt.client.Eval(ctx, sh, reqID, &EvalRequest{Entries: entries, Tag: tag, MaxDist: maxDist, K: needK, Trace: tb != nil})
				d := time.Since(t0)
				rt.shardLatency[sh].Observe(d)
				rt.shards[sh].rpcs.Add(1)
				if err != nil {
					rt.shards[sh].rpcErrors.Add(1)
				}
				outs <- shardOut{sh: sh, resp: resp, err: err, rpcStart: t0, rpcDur: d}
			}(sh, b)
		}
		// The dispatch goroutines hold the old batch slices; from here on
		// batches accumulates the next round's frontier.
		batches = make([][]flix.FrontierEntry, nShards)
		var redispatched, deduped int64
		for i := 0; i < active; i++ {
			o := <-outs
			if tb != nil {
				tb.dispatch(rspan, o, sent[o.sh], needK)
			}
			if o.err != nil {
				failed[o.sh] = true
				out.partial = true
				rt.shardFailures.Add(1)
				if rt.cfg.Logger != nil {
					rt.cfg.Logger.Printf("id=%s shard %d dropped from query: %v", reqID, o.sh, o.err)
				}
				continue
			}
			rt.shards[o.sh].results.Add(int64(len(o.resp.Results)))
			if o.resp.Fingerprint != topo.fingerprint {
				// The shard swapped to a different decomposition mid-query;
				// its node IDs no longer map onto our topology.
				failed[o.sh] = true
				out.partial = true
				rt.shardFailures.Add(1)
				if rt.cfg.Logger != nil {
					rt.cfg.Logger.Printf("id=%s shard %d dropped: fingerprint %s != topology %s",
						reqID, o.sh, o.resp.Fingerprint, topo.fingerprint)
				}
				continue
			}
			if o.resp.Truncated {
				out.partial = true
			}
			for _, r := range o.resp.Results {
				if d, ok := resultMin[r.Node]; !ok || r.Dist < d {
					resultMin[r.Node] = r.Dist
				}
			}
			for _, hp := range o.resp.Hops {
				rt.hops.Add(1)
				if tb != nil {
					tb.hopsSeen++
				}
				if hp.Dist < 0 || (maxDist > 0 && hp.Dist > maxDist) {
					continue
				}
				if d, ok := best[hp.Node]; ok && d <= hp.Dist {
					rt.hopsDeduped.Add(1)
					deduped++
					continue
				}
				if rt.cfg.HopBudget > 0 && dispatched >= rt.cfg.HopBudget {
					budgetHit = true
					continue
				}
				best[hp.Node] = hp.Dist
				dispatched++
				redispatched++
				ow := rt.ring.Owner(topo.metaOf[hp.Node])
				batches[ow] = append(batches[ow], hp)
			}
		}
		if tb != nil {
			// The re-dispatch decision summary for this round: how many
			// returned hops advanced the frontier vs. fell to dedup.
			tb.hopsRedispatched += redispatched
			tb.hopsDeduped += deduped
			rspan.SetAttr("redispatched", redispatched)
			rspan.SetAttr("deduped", deduped)
			tb.end(rspan)
		}
	}

	if budgetHit {
		out.partial = true
		rt.budgetStops.Add(1)
		if tb != nil {
			tb.budgetExhausted = true
		}
	}
	out.hopsDispatched = dispatched
	// Under needK a response adds at most needK entries to resultMin, so it
	// stays within needK per RPC and is not pruned between rounds: that
	// would cost a selection every round to shorten one small sort here.
	out.results = sortEntries(resultMin)
	if needK > 0 && len(out.results) > needK {
		out.results = out.results[:needK]
	}
	out.failed = sortedShardIDs(failed)
	rt.gathers.Add(1)
	rt.rounds.Add(int64(out.rounds))
	rt.fanouts.Add(int64(out.fanouts))
	rt.hopsRedispatched.Add(int64(dispatched))
	if out.partial {
		rt.partials.Add(1)
	}
	if gspan != nil {
		gspan.SetAttr("rounds", int64(out.rounds))
		gspan.SetAttr("results", int64(len(resultMin)))
	}
	return out
}

// countBelow counts results strictly below the watermark — the immutable
// prefix of the merged stream.
func countBelow(m map[xmlgraph.NodeID]int32, watermark int32) int {
	if watermark < 0 {
		return 0
	}
	n := 0
	for _, d := range m {
		if d < watermark {
			n++
		}
	}
	return n
}

// sortEntries flattens a min-distance map into the (dist, node) order the
// wire protocol promises.
func sortEntries(m map[xmlgraph.NodeID]int32) []flix.FrontierEntry {
	out := make([]flix.FrontierEntry, 0, len(m))
	for n, d := range m {
		out = append(out, flix.FrontierEntry{Node: n, Dist: d})
	}
	slices.SortFunc(out, func(x, y flix.FrontierEntry) int {
		if c := cmp.Compare(x.Dist, y.Dist); c != 0 {
			return c
		}
		return cmp.Compare(x.Node, y.Node)
	})
	return out
}

func sortedShardIDs(failed map[int]bool) []int {
	if len(failed) == 0 {
		return nil
	}
	out := make([]int, 0, len(failed))
	for sh := range failed {
		out = append(out, sh)
	}
	sort.Ints(out)
	return out
}

// routerBackend is one admitted request's front.Backend: every scan is a
// scatter-gather.  It is also the query.Backend the ranked evaluator runs
// its //-step scans against, unchanged, across the cluster.  What the
// gathers lost accumulates here for the response: partial, the failed
// shards, the rounds.  It is used by one request goroutine at a time.
type routerBackend struct {
	rt  *Router
	ctx context.Context
	req front.Request
	tb  *traceBuilder // non-nil for ?trace=1

	partial bool
	failed  []int // sorted shard IDs; nil while none failed
	rounds  int
	// lost is partial since the last TakePartial: a batch flags items, the
	// other endpoints the response.
	lost bool
}

func (b *routerBackend) Collection() *xmlgraph.Collection { return b.rt.coll }

func (b *routerBackend) Descendants(start xmlgraph.NodeID, tag string, opts flix.Options, fn flix.Emit) {
	g := b.rt.gatherDescendants(b.ctx, b.req.ID, start, tag, opts.MaxDist, opts.MaxResults, opts.IncludeSelf, b.tb)
	b.merge(g)
	emitted := 0
	for _, e := range g.results {
		if opts.MaxResults > 0 && emitted >= opts.MaxResults {
			return
		}
		if !fn(flix.Result{Node: e.Node, Dist: e.Dist}) {
			return
		}
		emitted++
	}
}

// Ancestors is intentionally a no-op: the router does not enable
// InverseScore, so the ranked evaluator never calls it.
func (b *routerBackend) Ancestors(start xmlgraph.NodeID, tag string, opts flix.Options, fn flix.Emit) {
}

// Connected gathers from//tag(to) with an early stop once the target's
// distance is final.
func (b *routerBackend) Connected(from, to xmlgraph.NodeID, opts flix.Options) (int32, bool) {
	if from == to {
		return 0, true
	}
	g := b.rt.gather(b.ctx, b.req.ID, []flix.FrontierEntry{{Node: from, Dist: 0}},
		b.rt.coll.Tag(to), opts.MaxDist, 0, to, b.tb)
	b.merge(g)
	for _, e := range g.results {
		if e.Node == to {
			return e.Dist, true
		}
	}
	return 0, false
}

func (b *routerBackend) Evaluator() *query.Evaluator {
	return &query.Evaluator{Index: b, Ontology: b.rt.onto, Cancel: b.ctx.Done()}
}

// Locate has no cache to consult; the meta document groups consecutive
// gathers onto the same owning shard.
func (b *routerBackend) Locate(start xmlgraph.NodeID, tag string) (int32, bool) {
	if topo := b.rt.topo.Load(); topo != nil && int(start) < len(topo.metaOf) {
		return topo.metaOf[start], false
	}
	return 0, false
}

func (b *routerBackend) TakePartial() bool {
	lost := b.lost
	b.lost = false
	return lost
}

func (b *routerBackend) merge(g gatherOut) {
	b.rounds += g.rounds
	if g.partial {
		b.partial, b.lost = true, true
	}
	for _, sh := range g.failed {
		if !slices.Contains(b.failed, sh) {
			b.failed = append(b.failed, sh)
			sort.Ints(b.failed)
		}
	}
}

// Finish adds the partial-results contract — "partial" and "failedShards"
// in the body, X-Flix-Shards-Failed on the response — the rounds of a
// descendants gather, and the cluster trace.
func (b *routerBackend) Finish(w http.ResponseWriter, reply *front.Reply, results int, ev *query.Evaluator) {
	b.setFailedHeader(w)
	reply.Partial, reply.FailedShards, reply.Has = b.partial, b.failed, front.HasPartial
	if b.req.Endpoint == "descendants" {
		reply.Rounds = b.rounds
		reply.Has |= front.HasRounds
	}
	if b.tb == nil {
		return
	}
	if ev != nil {
		// The ranked evaluator's own work shape rides on the root span;
		// each //-step scan is one gather child beneath it.
		b.tb.root.SetAttr("steps", int64(ev.Stats.Steps))
		b.tb.root.SetAttr("scans", int64(ev.Stats.Scans))
		b.tb.root.SetAttr("anchored", int64(ev.Stats.Anchored))
	}
	reply.Trace = b.tb.finish(int64(results), b.partial, b.failed)
}

func (b *routerBackend) FinishBatch(w http.ResponseWriter, reply *front.Reply) {
	b.setFailedHeader(w)
	reply.FailedShards = b.failed
}

func (b *routerBackend) Done(time.Duration) {}

// setFailedHeader attaches X-Flix-Shards-Failed when shards dropped out of
// a gather.
func (b *routerBackend) setFailedHeader(w http.ResponseWriter) {
	if len(b.failed) == 0 {
		return
	}
	ids := make([]string, len(b.failed))
	for i, sh := range b.failed {
		ids[i] = strconv.Itoa(sh)
	}
	w.Header().Set(FailedShardsHeader, strings.Join(ids, ","))
}
