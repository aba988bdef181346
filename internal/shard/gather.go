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
	"repro/internal/pathindex"
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

// gatherState is the working memory of one gather, pooled on the Router so
// that a warm gather allocates only what it hands back and sends.  Its two
// per-node tables are the evaluator's flix.NodeTable, which resets in O(1),
// used as the shard's partial driver uses them: one relaxes, the other
// indexes a dense list of results.
type gatherState struct {
	// best is the lazy-deletion Dijkstra table: the smallest distance at
	// which each node has entered the cross-shard frontier.
	best flix.NodeTable
	// held is every result node once, packed with the smallest distance it
	// was reported at, in the order of first report; results maps a node
	// to its position in held.
	held    []pathindex.DistNode
	results flix.NodeTable
	// keys is the copy of held the top-k bound selects from; tmp is the
	// second buffer of the final sort.
	keys, tmp []pathindex.DistNode
}

func (rt *Router) getGather() *gatherState {
	st, _ := rt.gathers.Get().(*gatherState)
	if st == nil {
		st = new(gatherState)
	}
	return st
}

// putGather empties st, keeping its capacity, and pools it.
func (rt *Router) putGather(st *gatherState) {
	st.best.Reset()
	st.results.Reset()
	st.held = st.held[:0]
	rt.gathers.Put(st)
}

// shardOut carries one shard RPC's outcome to the gather loop, from a
// dispatch goroutine when the round fans out.  The request and RPC timings
// ride along so the trace builder (single-goroutine, on the gather's side)
// can build dispatch spans without any locking.
type shardOut struct {
	sh       int
	req      *EvalRequest
	resp     *EvalResponse
	err      error
	rpcStart time.Time
	rpcDur   time.Duration
}

// gatherOut is one scatter-gather evaluation's outcome.
type gatherOut struct {
	// results is min-distance-per-node, sorted by (dist, node).
	results []flix.FrontierEntry
	// failed lists shard IDs whose batches were dropped (sorted).
	failed []int
	gatherTally
}

// gatherTally is the one count of what a gather did: Router.gather folds
// it into the router's running tally once (Router.scatter, the counters
// /metrics and /statsz read), and a request's summed tallies give
// its response's rounds and partial flag and its cluster trace's scalars.
// earlyStops, budgetStops and partials (dropped work: failed shards, a
// truncated shard evaluation, an exhausted hop budget or an expired
// deadline) are 0 or 1 per gather.  hopsBounded counts staged entries the
// top-k bound removed before a dispatch; each was counted re-dispatched
// when it was staged.
type gatherTally struct {
	gathers, rounds, fanouts                int
	hopsSeen, hopsDeduped, hopsRedispatched int
	hopsBounded                             int
	earlyStops, budgetStops, partials       int
	shardFailures                           int
}

func (t *gatherTally) add(u gatherTally) {
	t.gathers += u.gathers
	t.rounds += u.rounds
	t.fanouts += u.fanouts
	t.hopsSeen += u.hopsSeen
	t.hopsDeduped += u.hopsDeduped
	t.hopsRedispatched += u.hopsRedispatched
	t.hopsBounded += u.hopsBounded
	t.earlyStops += u.earlyStops
	t.budgetStops += u.budgetStops
	t.partials += u.partials
	t.shardFailures += u.shardFailures
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

// gather runs the rounds loop.  needK > 0 travels to the shards as
// EvalRequest.K, so no shard computes, sorts or ships more than the gather
// can use, and enables the top-k bound: once the gather holds needK
// results, the needK-th smallest held distance D bounds the answer, so a
// round dispatches no staged entry beyond D and sends D as its maxdist,
// and the gather stops early when D lies below the pending-frontier
// watermark (the package doc has the argument that neither the answer nor
// the round the stop fires in changes); results is then the needK-prefix.
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
		out.partials = 1
		return out
	}
	var gspan *obs.Span
	if tb != nil {
		gspan = tb.beginGather(fmt.Sprintf("tag=%s starts=%d", tag, len(starts)))
		defer func() { tb.end(gspan) }()
	}
	nShards := len(rt.shards)
	st := rt.getGather()
	defer rt.putGather(st)
	failed := make(map[int]bool)

	batches := make([][]flix.FrontierEntry, nShards)
	for _, e := range starts {
		if e.Dist < 0 || (maxDist > 0 && e.Dist > maxDist) {
			continue
		}
		if !st.best.Relax(e.Node, e.Dist) {
			out.hopsDeduped++
			continue
		}
		ow := topo.owner[topo.metaOf[e.Node]]
		batches[ow] = append(batches[ow], e)
	}

	for {
		if ctx.Err() != nil {
			out.partials = 1
			break
		}
		// The watermark is the smallest pending frontier distance: every
		// result a future round can produce sits at or above it.
		watermark := int32(-1)
		for sh, b := range batches {
			if len(b) == 0 {
				continue
			}
			if failed[sh] {
				// The shard already failed this query; its share of the
				// frontier is lost — sound subset, flagged partial.
				out.partials = 1
				batches[sh] = nil
				continue
			}
			for _, e := range b {
				if watermark < 0 || e.Dist < watermark {
					watermark = e.Dist
				}
			}
		}
		if watermark < 0 {
			break
		}
		// bound is D, the needK-th smallest held distance, once needK
		// results are held: the answer lies at or below it.  D below the
		// watermark is the top-k stop; D = 0 always stops, since every
		// staged hop is a link away, so 0 is free to mean "none yet".
		var bound int32
		if needK > 0 && len(st.held) >= needK {
			st.keys = append(st.keys[:0], st.held...)
			bound = kthSmallest(st.keys, needK-1).Dist()
			if bound < watermark {
				out.earlyStops = 1
				break
			}
		}
		if i, reached := st.results.Get(target); reached && st.held[i].Dist() <= watermark { // never reached without a target
			out.earlyStops = 1
			break
		}
		// An entry beyond the bound leads only beyond it: drop it.  The
		// watermark's entry is kept, so no round goes out empty.
		roundMax := maxDist
		if bound > 0 && (maxDist == 0 || bound < maxDist) {
			roundMax = bound
		}
		active := 0
		for sh, b := range batches {
			if bound > 0 {
				kept := b[:0]
				for _, e := range b {
					if e.Dist <= bound {
						kept = append(kept, e)
					}
				}
				out.hopsBounded += len(b) - len(kept)
				b, batches[sh] = kept, kept
			}
			if len(b) > 0 {
				active++
			}
		}

		out.rounds++
		var rspan *obs.Span
		if tb != nil {
			rspan = tb.child(gspan, "round")
			rspan.SetAttr("round", int64(out.rounds))
			rspan.SetAttr("shards", int64(active))
			rspan.SetAttr("watermark", int64(watermark))
			rspan.SetAttr("bound", int64(bound))
		}
		// A round with one active shard calls it on this goroutine; more
		// fan out, one dispatch goroutine each.
		var one shardOut
		var outs chan shardOut
		if active > 1 {
			outs = make(chan shardOut, active)
		}
		for sh, b := range batches {
			if len(b) == 0 {
				continue
			}
			out.fanouts++
			req := &EvalRequest{Entries: b, Tag: tag, MaxDist: roundMax, K: needK, Trace: tb != nil}
			if outs == nil {
				one = rt.dispatch(ctx, reqID, sh, req)
				continue
			}
			go func() { outs <- rt.dispatch(ctx, reqID, sh, req) }()
		}
		// The requests hold the old batch slices; from here on batches
		// accumulates the next round's frontier.
		batches = make([][]flix.FrontierEntry, nShards)
		before := out.gatherTally // the round's counts are the growth past it
		for i := 0; i < active; i++ {
			o := one
			if outs != nil {
				o = <-outs
			}
			if tb != nil {
				tb.dispatch(rspan, o)
			}
			err := o.err
			if err == nil {
				rt.shards[o.sh].results.Add(int64(len(o.resp.Results)))
				err = topo.check(o.resp)
			}
			if err != nil {
				failed[o.sh] = true
				out.partials = 1
				out.shardFailures++
				if rt.cfg.Logger != nil {
					rt.cfg.Logger.Printf("id=%s shard %d dropped from query: %v", reqID, o.sh, err)
				}
				continue
			}
			if o.resp.Truncated {
				out.partials = 1
			}
			for _, r := range o.resp.Results {
				k := pathindex.PackDistNode(r.Dist, int32(r.Node))
				if i, seen := st.results.LoadOrStore(r.Node, int32(len(st.held))); !seen {
					st.held = append(st.held, k)
				} else if k < st.held[i] {
					st.held[i] = k
				}
			}
			out.hopsSeen += len(o.resp.Hops)
			for _, hp := range o.resp.Hops {
				if maxDist > 0 && hp.Dist > maxDist {
					continue
				}
				if rt.cfg.HopBudget > 0 && out.hopsRedispatched >= rt.cfg.HopBudget {
					if d, ok := st.best.Get(hp.Node); ok && d <= hp.Dist {
						out.hopsDeduped++
					} else {
						out.budgetStops, out.partials = 1, 1
					}
					continue
				}
				if !st.best.Relax(hp.Node, hp.Dist) {
					out.hopsDeduped++
					continue
				}
				out.hopsRedispatched++
				ow := topo.owner[topo.metaOf[hp.Node]]
				batches[ow] = append(batches[ow], hp)
			}
		}
		if tb != nil {
			// The re-dispatch decision summary for this round: how many
			// returned hops advanced the frontier vs. fell to dedup.
			rspan.SetAttr("redispatched", int64(out.hopsRedispatched-before.hopsRedispatched))
			rspan.SetAttr("deduped", int64(out.hopsDeduped-before.hopsDeduped))
			tb.end(rspan)
		}
	}
	// Under needK a response adds at most needK entries to the results
	// table, so it stays within needK per RPC and is not pruned between
	// rounds: that would cost a selection every round to shorten one small
	// sort here.
	pathindex.SortDistNode(st.held, &st.tmp)
	keys := st.held
	if needK > 0 && len(keys) > needK {
		keys = keys[:needK]
	}
	if len(keys) > 0 {
		out.results = make([]flix.FrontierEntry, len(keys))
		for i, k := range keys {
			out.results[i] = flix.FrontierEntry{Node: xmlgraph.NodeID(k.Node()), Dist: k.Dist()}
		}
	}
	out.failed = sortedShardIDs(failed)
	out.gathers = 1
	rt.scatterMu.Lock()
	rt.scatter.add(out.gatherTally)
	rt.scatterMu.Unlock()
	if gspan != nil {
		gspan.SetAttr("rounds", int64(out.rounds))
		gspan.SetAttr("results", int64(len(st.held)))
	}
	return out
}

// check reports why resp cannot be merged into a gather over t: the shard
// swapped to another decomposition mid-query, so its node IDs no longer map
// onto t; or a result or hop names no node of t, which would index past the
// gather's tables, or carries a negative distance, which they do not hold.
func (t *topology) check(resp *EvalResponse) error {
	if resp.Fingerprint != t.fingerprint {
		return fmt.Errorf("fingerprint %s != topology %s", resp.Fingerprint, t.fingerprint)
	}
	for _, es := range [...][]flix.FrontierEntry{resp.Results, resp.Hops} {
		for _, e := range es {
			if e.Node < 0 || int(e.Node) >= len(t.metaOf) || e.Dist < 0 {
				return fmt.Errorf("entry (node %d, distance %d) is not a node of the topology's %d at a distance of at least 0", e.Node, e.Dist, len(t.metaOf))
			}
		}
	}
	return nil
}

// dispatch runs one shard RPC of a round and counts it.
func (rt *Router) dispatch(ctx context.Context, reqID string, sh int, req *EvalRequest) shardOut {
	t0 := time.Now()
	resp, err := rt.client.Eval(ctx, sh, reqID, req)
	d := time.Since(t0)
	rt.shardLatency[sh].Observe(d)
	rt.shards[sh].rpcs.Add(1)
	if err != nil {
		rt.shards[sh].rpcErrors.Add(1)
	}
	return shardOut{sh: sh, req: req, resp: resp, err: err, rpcStart: t0, rpcDur: d}
}

// kthSmallest returns the k-th smallest (0-based) of a, reordering a: a
// quickselect whose Hoare partition keeps runs of equal values balanced.
func kthSmallest[T cmp.Ordered](a []T, k int) T {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] <= p <= a[i..hi], and a[j+1..i-1] all equal p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
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
// gathers did and lost accumulates here for the response: their summed
// tally (rounds, partial, the trace's counts) and the failed shards.  It is
// used by one request goroutine at a time.
type routerBackend struct {
	rt  *Router
	ctx context.Context
	req front.Request
	tb  *traceBuilder // non-nil for ?trace=1

	tally  gatherTally
	failed []int // sorted shard IDs; nil while none failed
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
func (b *routerBackend) Locate(start xmlgraph.NodeID, tag string, _ flix.Options) (int32, bool) {
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
	b.tally.add(g.gatherTally)
	if g.partials > 0 {
		b.lost = true
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
	reply.Partial, reply.FailedShards, reply.Has = b.tally.partials > 0, b.failed, front.HasPartial
	if b.req.Endpoint == "descendants" {
		reply.Rounds = b.tally.rounds
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
	reply.Trace = b.tb.finish(int64(results), b.tally, b.failed)
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
