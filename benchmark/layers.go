package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/flix"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/shard"
)

// layerMetric names one per-layer metric of the traced run.  The list is
// the single source for what -trace 1 prints; BENCHMARK.json's per_layer
// repeats it (a test holds the two together).  A metric that does not apply
// to a workload reads 0 there.
type layerMetric struct{ name, unit, better string }

var perLayer = []layerMetric{
	// flix: the evaluator, its cache and the build.
	{"flix.desc_inproc_us", "us", "lower"},    // median in-process Descendants replay of the op list
	{"flix.partial_inproc_us", "us", "lower"}, // median PartialDescendants under the owner's 2-shard mask
	{"flix.pops_per_op", "count", "lower"},    // engine counters over the traced laps, per operation
	{"flix.entries_per_op", "count", "lower"},
	{"flix.link_hops_per_op", "count", "lower"},
	{"flix.dup_dropped_ratio", "ratio", "lower"},
	{"flix.results_per_op", "count", "higher"},
	{"flix.cache_hit_ratio", "ratio", "higher"},
	{"flix.build_s", "s", "lower"},
	{"flix.build_partition_s", "s", "lower"},
	{"flix.build_index_s", "s", "lower"},
	{"flix.open_ms", "ms", "lower"},
	{"flix.snapshot_write_ms", "ms", "lower"},
	{"flix.index_heap_mb", "MB", "lower"}, // live heap BuildWithOptions added
	// pathindex: server-side latency by the start node's strategy.
	{"pathindex.strategy_ppo_ms", "ms", "lower"},
	{"pathindex.strategy_hopi_ms", "ms", "lower"},
	// storage: the snapshot the workload serves (or would persist as).
	{"storage.bytes_ppo-c", "B", "lower"},
	{"storage.bytes_hopi-c", "B", "lower"},
	{"storage.bytes_raw", "B", "lower"},
	{"storage.compress_ratio", "ratio", "higher"},
	{"storage.mapped_desc_ratio", "ratio", "lower"}, // in-process Descendants, compressed-mapped over heap
	// query: ranked evaluation.
	{"query.topk_inproc_us", "us", "lower"},
	// server: the HTTP front.
	{"server.http_overhead_us", "us", "lower"}, // client p50 − in-process p50, same requests
	{"server.request_ms_descendants", "ms", "lower"},
	{"server.request_ms_connected", "ms", "lower"},
	{"server.request_ms_query", "ms", "lower"},
	{"server.request_ms_batch", "ms", "lower"},
	{"server.request_ms_shard_eval", "ms", "lower"},
	{"server.batch_us_per_item", "us", "lower"},
	{"server.install_ms", "ms", "lower"},
	{"server.warmed_queries", "count", "lower"},
	{"server.shed_total", "count", "lower"},
	{"server.timeouts_total", "count", "lower"},
	{"server.client_errors_total", "count", "lower"},
	// shard: the router's gather loop and its RPCs.
	{"shard.rounds_per_gather", "count", "lower"},
	{"shard.rpcs_per_op", "count", "lower"},
	{"shard.hops_redispatched_per_op", "count", "lower"},
	{"shard.hops_deduped_per_op", "count", "lower"},
	{"shard.rpc_ms_mean", "ms", "lower"},
	{"shard.router_self_ms", "ms", "lower"}, // router request mean − rounds × RPC mean
	{"shard.partial_results_total", "count", "lower"},
	{"shard.rpc_errors_total", "count", "lower"},
	// obs: what asking for a trace costs.
	{"obs.trace_overhead_ratio", "ratio", "lower"}, // client p50 of the descendants requests with ?trace=1 over without
	{"obs.traced_allocs_per_op", "count", "lower"},
	// client: the harness's own view of the traced laps.  Its rate and
	// median against the untraced run's ops_per_s and p50_ms are the cost
	// of the harness's spans.
	{"client.samples", "count", "higher"},
	{"client.tail_pct", "%", "higher"}, // highest percentile with ten samples beyond it
	{"client.ops_per_s", "1/s", "higher"},
	{"client.p50_ms", "ms", "lower"},
	{"client.p99_ms", "ms", "lower"},
	{"client.max_ms", "ms", "lower"},
	{"client.desc_p50_ms", "ms", "lower"},
	{"client.traced_p50_ms", "ms", "lower"},
	{"client.connected_p50_ms", "ms", "lower"},
	{"client.ranked_p50_ms", "ms", "lower"},
	{"client.batch_p50_ms", "ms", "lower"},
	{"client.error_rate", "ratio", "lower"},
	// runtime: allocation and collection over the traced laps.
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_kb_per_op", "KB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.live_heap_mb", "MB", "lower"}, // collected heap when the laps begin: collection, index, servers, op list
	// share: each layer's part of the traced lap's self time.
	{"share.flix", "ratio", "lower"},
	{"share.query", "ratio", "lower"},
	{"share.server", "ratio", "lower"},
	{"share.shard", "ratio", "lower"},
	{"share.storage", "ratio", "lower"},
}

// layerOf maps a span name to the layer its self time belongs to.  What a
// request costs beyond its in-process replay is the serving tier's: the
// router and its shards when sharded, the HTTP front otherwise.
func layerOf(name string, sharded bool) string {
	switch name {
	case "client.request":
		if sharded {
			return "shard"
		}
		return "server"
	case "flix.OpenSnapshotWith":
		return "storage"
	case "query.Evaluator.EvaluateTopK":
		return "query"
	case "server.Install", "op.reopen":
		return "server"
	}
	return "flix"
}

func discard(flix.Result) bool { return true }

// replayer re-runs operations in-process, straight against the public
// functions of the layers below the HTTP front, timing each call.
type replayer struct {
	s  *stack
	sl *spanLog
	// cache mirrors the server's QueryCache where the workload has one.
	cache *flix.QueryCache
	ev    *query.Evaluator
	dur   map[string][]int64 // span name → every duration measured
}

func (s *stack) newCache() *flix.QueryCache {
	c := s.serving.NewQueryCache(1024)
	c.StoreBounded = true
	return c
}

func (r *replayer) timed(name string, parent int64, op int, f func()) {
	sp := r.sl.begin(name, parent, op, true)
	t0 := time.Now()
	f()
	r.dur[name] = append(r.dur[name], int64(time.Since(t0)))
	r.sl.end(sp)
}

// replay runs o's work in-process under the span of the request it
// replays.
func (r *replayer) replay(o *op, idx int, parent int64) {
	switch o.class {
	case classDesc, classTraced:
		opts := flix.Options{MaxResults: descLimit}
		if r.cache != nil {
			r.timed("flix.QueryCache.Descendants", parent, idx, func() { r.cache.Descendants(o.start, o.tag, opts, discard) })
		} else {
			r.timed("flix.Index.Descendants", parent, idx, func() { r.s.serving.Descendants(o.start, o.tag, opts, discard) })
		}
	case classConnected:
		r.timed("flix.Index.ConnectedOpts", parent, idx, func() { r.s.serving.ConnectedOpts(o.start, o.to, flix.Options{}) })
	case classRanked:
		q, err := query.Parse(o.expr)
		if err != nil {
			panic(err) // the verification pass already ran this expression
		}
		r.timed("query.Evaluator.EvaluateTopK", parent, idx, func() { r.ev.EvaluateTopK(q, rankedLimit) })
	case classBatch:
		for i := range o.items {
			r.replay(&o.items[i], idx, parent)
		}
	}
}

// descRequests returns up to 1000 of the descendants requests the op list
// sends, in order.
func descRequests(ops []op) []*op {
	var out []*op
	var walk func(ops []op)
	walk = func(ops []op) {
		for i := range ops {
			switch o := &ops[i]; {
			case o.class == classReopen:
				walk(o.items)
			case (o.class == classDesc || o.class == classTraced) && len(out) < 1000:
				out = append(out, o)
			}
		}
	}
	walk(ops)
	return out
}

func medianNs(ns []int64) float64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(percentile(s, 0.5))
}

// tracedRun is the measuring part of a -trace 1 run.  Half the time goes
// to traced laps over HTTP — spans around every client request of the
// first lap, /metrics scraped before and after — an eighth each to
// in-process replays of the same operations and to the tracing-cost
// probes.  It returns every per-layer metric and the laps it ran.
func (s *stack) tracedRun(clients []*client, ops []op, o options, rec *recorder) (map[string]metric, []lap, error) {
	v := map[string]float64{}

	before, err := scrape(s.scrapeURLs)
	if err != nil {
		return nil, nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rec.paused = false
	var laps []lap
	for t0 := time.Now(); len(laps) == 0 || time.Since(t0).Seconds() < o.seconds/2; {
		laps = append(laps, s.runLap(clients, ops, quickJudge))
		rec.paused = true // one lap of spans attributes the time; later laps add samples
	}
	runtime.ReadMemStats(&ms1)
	after, err := scrape(s.scrapeURLs)
	if err != nil {
		return nil, nil, err
	}
	nOps := clientMetrics(v, laps, ops, s.w.tail)
	s.countMetrics(v, after.delta(before), nOps, ops)
	v["runtime.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / nOps
	v["runtime.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / nOps
	v["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	v["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	v["runtime.live_heap_mb"] = float64(ms0.HeapAlloc) / 1e6 // the caller has just collected
	if s.srv != nil {
		if v["server.warmed_queries"], err = warmedQueries(s.front); err != nil {
			return nil, nil, err
		}
	}

	// Build and storage, from the layers' own reports.
	bs := s.built.BuildStats()
	v["flix.build_s"] = s.buildTime.Seconds()
	v["flix.build_partition_s"] = bs.Partition.Seconds()
	v["flix.build_index_s"] = bs.IndexBuild.Seconds()
	v["flix.snapshot_write_ms"] = float64(s.snapshotWrite) / 1e6
	v["flix.index_heap_mb"] = float64(s.indexHeap) / 1e6
	if err := s.storageMetrics(v); err != nil {
		return nil, nil, err
	}

	dur := s.replayAll(ops, o.seconds/8, rec)
	v["flix.desc_inproc_us"] = medianNs(append(dur["flix.Index.Descendants"], dur["flix.QueryCache.Descendants"]...)) / 1e3
	v["query.topk_inproc_us"] = medianNs(dur["query.Evaluator.EvaluateTopK"]) / 1e3

	descReqs := descRequests(ops)
	if s.w.shards > 0 {
		v["flix.partial_inproc_us"] = s.partialReplay(descReqs) / 1e3
	}
	if s.w.mapped {
		v["storage.mapped_desc_ratio"] = ratio(s.descReplay(s.serving, descReqs, false), s.descReplay(s.built, descReqs, false))
	}
	var mallocs0, mallocs1 runtime.MemStats
	runtime.ReadMemStats(&mallocs0)
	s.descReplay(s.serving, descReqs, true)
	runtime.ReadMemStats(&mallocs1)
	v["obs.traced_allocs_per_op"] = float64(mallocs1.Mallocs-mallocs0.Mallocs) / float64(len(descReqs))
	if v["obs.trace_overhead_ratio"], err = s.traceOverhead(clients[0], descReqs, o.seconds/8); err != nil {
		return nil, nil, err
	}

	spans := rec.all()
	self := selfTimes(spans)
	s.spanMetrics(v, spans, self, ops)
	if err := writeTrace(s.w.name, o.seed, spans, self); err != nil {
		return nil, nil, err
	}

	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out, laps, nil
}

// clientMetrics fills in the harness's own view of the traced laps and
// returns the number of operations they completed.
func clientMetrics(v map[string]float64, laps []lap, ops []op, tail float64) float64 {
	var all []int64
	byClass := map[opClass][]int64{}
	failed := 0
	for _, l := range laps {
		failed += l.failed
		for _, sm := range l.samples {
			all = append(all, sm.ns)
			c := ops[sm.op].class
			byClass[c] = append(byClass[c], sm.ns)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	raw := endToEnd(laps, len(ops), tail)
	v["client.ops_per_s"], v["client.p50_ms"] = raw["ops_per_s"], raw["p50_ms"]
	v["client.samples"] = float64(len(all))
	v["client.tail_pct"] = supportedTail(len(all)) * 100
	v["client.p99_ms"] = float64(percentile(all, 0.99)) / 1e6
	v["client.max_ms"] = float64(all[len(all)-1]) / 1e6
	v["client.error_rate"] = float64(failed) / float64(len(all))
	for c, ns := range byClass {
		if c != classReopen {
			v["client."+classNames[c]+"_p50_ms"] = medianNs(ns) / 1e6
		}
	}
	return float64(len(all))
}

// countMetrics fills in what the servers counted and timed over the traced
// laps: d is the /metrics delta, summed over every server of the stack.
func (s *stack) countMetrics(v map[string]float64, d promSample, nOps float64, ops []op) {
	v["flix.pops_per_op"] = d["flix_engine_pops_total"] / nOps
	v["flix.entries_per_op"] = d["flix_engine_entries_total"] / nOps
	v["flix.link_hops_per_op"] = d["flix_engine_link_hops_total"] / nOps
	v["flix.results_per_op"] = d["flix_engine_results_total"] / nOps
	v["flix.dup_dropped_ratio"] = ratio(d["flix_engine_dup_dropped_total"], d["flix_engine_pops_total"])
	v["flix.cache_hit_ratio"] = ratio(d["flix_cache_hits_total"], d["flix_cache_hits_total"]+d["flix_cache_misses_total"])
	for _, st := range []string{"ppo", "hopi"} {
		v["pathindex.strategy_"+st+"_ms"] = d.meanMs("flix_strategy_request_duration_seconds", "strategy", st)
	}
	for _, ep := range []string{"descendants", "connected", "query", "batch", "shard_eval"} {
		v["server.request_ms_"+ep] = d.meanMs("flix_request_duration_seconds", "endpoint", ep)
	}
	for i := range ops {
		if ops[i].class == classBatch {
			v["server.batch_us_per_item"] = v["server.request_ms_batch"] * 1e3 / float64(len(ops[i].items))
			break
		}
	}
	v["server.shed_total"] = d["flix_requests_shed_total"] + d["flix_router_requests_shed_total"]
	v["server.timeouts_total"] = d["flix_request_timeouts_total"] + d["flix_router_request_timeouts_total"]
	v["server.client_errors_total"] = d["flix_client_errors_total"] + d["flix_router_client_errors_total"]
	if s.w.shards == 0 {
		return
	}
	v["shard.rounds_per_gather"] = ratio(d["flix_router_rounds_total"], d["flix_router_gathers_total"])
	v["shard.rpcs_per_op"] = d.sumPrefix("flix_router_shard_rpcs_total") / nOps
	v["shard.hops_redispatched_per_op"] = d["flix_router_hops_redispatched_total"] / nOps
	v["shard.hops_deduped_per_op"] = d["flix_router_hops_deduped_total"] / nOps
	v["shard.rpc_ms_mean"] = 1e3 * ratio(d.sumPrefix("flix_router_shard_rpc_duration_seconds_sum"), d.sumPrefix("flix_router_shard_rpc_duration_seconds_count"))
	v["shard.router_self_ms"] = d.meanMs("flix_router_request_duration_seconds", "endpoint", "descendants") -
		v["shard.rounds_per_gather"]*v["shard.rpc_ms_mean"]
	v["shard.partial_results_total"] = d["flix_router_partial_results_total"]
	v["shard.rpc_errors_total"] = d.sumPrefix("flix_router_shard_rpc_errors_total")
}

// replayAll replays the op list in-process for about the given time and
// returns every duration by span name.  The first pass is unrecorded: it
// fills the mirror of the server's cache and settles pools, as the warm-up
// lap did for the servers.  The second is recorded as replay spans under the
// client.request spans of the traced lap; later ones only add durations.
func (s *stack) replayAll(ops []op, seconds float64, rec *recorder) map[string][]int64 {
	spanOf := map[int][]int64{} // op index → its client.request spans, in order
	for _, sp := range rec.all() {
		if sp.Name == "client.request" && sp.Op >= 0 {
			spanOf[sp.Op] = append(spanOf[sp.Op], sp.ID)
		}
	}
	r := &replayer{s: s, sl: rec.log(), ev: &query.Evaluator{Index: s.serving}}
	if s.w.cache >= 0 {
		r.cache = s.newCache()
	}
	for pass, t0 := -1, time.Now(); pass <= 0 || time.Since(t0).Seconds() < seconds; pass++ {
		rec.paused = pass != 0
		if pass <= 0 {
			r.dur = map[string][]int64{}
		}
		for i := range ops {
			if ops[i].class != classReopen {
				r.replay(&ops[i], i, spanOf[i][0])
				continue
			}
			r.cache = s.newCache() // a fresh generation starts with an empty cache
			for j := range ops[i].items {
				r.replay(&ops[i].items[j], i, spanOf[i][j])
			}
		}
	}
	rec.paused = true
	return r.dur
}

// spanMetrics fills in what the recorded lap's spans show: each layer's
// share of the self time, what a request costs beyond its replay, and the
// open and install times.
func (s *stack) spanMetrics(v map[string]float64, spans []span, self map[int64]int64, ops []op) {
	replayed := map[int64]int64{} // span → summed duration of its replayed children
	for _, sp := range spans {
		if sp.Replay {
			replayed[sp.Parent] += sp.dur()
		}
	}
	byLayer := map[string]float64{}
	byName := map[string][]int64{}
	var total float64
	var reqNs, replayNs []int64
	for _, sp := range spans {
		if sp.Op < 0 {
			continue // set-up, not an operation
		}
		byName[sp.Name] = append(byName[sp.Name], sp.dur())
		if sp.Name == "client.request" && replayed[sp.ID] > 0 && ops[sp.Op].class != classBatch {
			reqNs, replayNs = append(reqNs, sp.dur()), append(replayNs, replayed[sp.ID])
		}
		byLayer[layerOf(sp.Name, s.w.shards > 0)] += float64(self[sp.ID])
		total += float64(self[sp.ID])
	}
	for layer, ns := range byLayer {
		v["share."+layer] = ns / total
	}
	v["server.http_overhead_us"] = (medianNs(reqNs) - medianNs(replayNs)) / 1e3
	v["flix.open_ms"] = medianNs(byName["flix.OpenSnapshotWith"]) / 1e6
	v["server.install_ms"] = medianNs(byName["server.Install"]) / 1e6
}

// descReplay runs the descendants requests in-process on ix and returns
// the median duration in nanoseconds; traced attaches a fresh tracer to
// every call.
func (s *stack) descReplay(ix *flix.Index, reqs []*op, traced bool) float64 {
	ns := make([]int64, 0, len(reqs))
	for _, q := range reqs {
		opts := flix.Options{MaxResults: descLimit}
		if traced {
			opts.Tracer = obs.NewTrace(0)
		}
		t0 := time.Now()
		ix.Descendants(q.start, q.tag, opts, discard)
		ns = append(ns, int64(time.Since(t0)))
	}
	return medianNs(ns)
}

// partialReplay times PartialDescendants from each request's start under
// the ownership mask of the shard that owns it, as a shard-mode server
// evaluates the first round of a gather.
func (s *stack) partialReplay(reqs []*op) float64 {
	ring := shard.NewRing(s.w.shards, 0)
	masks := make([][]bool, s.w.shards)
	for i := range masks {
		masks[i] = ring.OwnedBy(i, s.built.NumMetaDocuments())
	}
	ns := make([]int64, 0, len(reqs))
	for _, q := range reqs {
		mask := masks[ring.Owner(s.built.MetaOf(q.start))]
		entries := []flix.FrontierEntry{{Node: q.start}}
		t0 := time.Now()
		s.built.PartialDescendants(entries, q.tag, flix.PartialOptions{Owned: func(m int32) bool { return mask[m] }})
		ns = append(ns, int64(time.Since(t0)))
	}
	return medianNs(ns)
}

// traceOverhead sends the descendants requests in turn, each once without
// and once with ?trace=1, for about the given time, and returns the ratio of
// the two client-side medians.
func (s *stack) traceOverhead(c *client, reqs []*op, seconds float64) (float64, error) {
	okStatus := func(o *op, status int, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", o.target, status, firstLine(body))
		}
		return nil
	}
	var ns [2][]int64
	for i, t0 := 0, time.Now(); i < 30 || time.Since(t0).Seconds() < seconds; i++ {
		q := reqs[i%len(reqs)]
		for which, class := range []opClass{classDesc, classTraced} {
			o := op{class: class, start: q.start, tag: q.tag}
			o.finish()
			t := time.Now()
			if err := s.request(c, &o, -1, 0, okStatus); err != nil {
				return 0, err
			}
			ns[which] = append(ns[which], int64(time.Since(t)))
		}
	}
	return ratio(medianNs(ns[1]), medianNs(ns[0])), nil
}

// storageMetrics reports the section sizes of the snapshot the workload
// serves; a heap workload's index is sized as the raw snapshot it would
// persist as.
func (s *stack) storageMetrics(v map[string]float64) error {
	ix := s.serving
	if !s.w.mapped {
		var buf bytes.Buffer
		if _, err := s.built.WriteSnapshotV2With(&buf, flix.SnapshotV2Options{}); err != nil {
			return err
		}
		var err error
		if ix, err = flix.OpenSnapshotBytes(s.corpus.coll, buf.Bytes()); err != nil {
			return err
		}
		defer ix.Close()
	}
	var raw, packed float64
	for _, sec := range ix.StorageInfo().Sections {
		switch {
		case sec.Kind == "ppo-c" || sec.Kind == "hopi-c":
			v["storage.bytes_"+sec.Kind] = float64(sec.Bytes)
			raw, packed = raw+float64(sec.RawBytes), packed+float64(sec.Bytes)
		case sec.Kind != "manifest":
			v["storage.bytes_raw"] += float64(sec.Bytes)
		}
	}
	v["storage.compress_ratio"] = ratio(raw, packed)
	return nil
}

// warmedQueries reads /statsz for how many cached queries the current
// generation took over from the one before it.
func warmedQueries(base string) (float64, error) {
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Generation struct {
			WarmedQueries float64 `json:"warmedQueries"`
		} `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("statsz: %w", err)
	}
	return st.Generation.WarmedQueries, nil
}

// traceDir is where the traced run leaves its span file.
var traceDir = filepath.Join("benchmark", "out")

// writeTrace writes the recorded spans with their self times.
func writeTrace(workload string, seed int64, spans []span, self map[int64]int64) error {
	type outSpan struct {
		span
		Self int64 `json:"selfNs"`
	}
	out := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Spans    []outSpan `json:"spans"`
	}{Workload: workload, Seed: seed}
	for _, sp := range spans {
		out.Spans = append(out.Spans, outSpan{sp, self[sp.ID]})
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(traceDir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
