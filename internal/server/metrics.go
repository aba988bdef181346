package server

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/front"
	"repro/internal/obs"
)

// handleMetrics renders the serving and engine counters in the Prometheus
// text exposition format, hand-rolled on the standard library (the module
// takes no external dependencies): the families every tier shares come
// from the front, the generation, engine, cache and build families from
// here.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	metric := func(name, kind, help string, v any) { front.Metric(p, name, kind, help, v) }
	s.front.WriteMetrics(p)
	g := s.gen.Load()

	metric("flix_index_generation", "gauge", "Current index generation number.", s.Generation())
	metric("flix_index_swaps_total", "counter", "Hot-swaps of the serving index (installs past the first).", s.swaps.Load())
	metric("flix_install_duration_seconds", "gauge", "Duration of the last Install call: time to publish the generation, cache warming excluded.", time.Duration(s.installNs.Load()).Seconds())
	metric("flix_slow_queries_total", "counter", "Requests slower than the slow-query threshold.", s.slowQueries.Load())
	front.MetricHead(p, "flix_strategy_request_duration_seconds", "histogram",
		"Query latency by the indexing strategy of the start node's meta document (current generation).")
	// Everything below describes the serving generation; before the first
	// install there is none to describe.
	if g == nil {
		return
	}
	for _, st := range front.SortedKeys(g.stratLatency) {
		obs.WriteHistogramText(p, "flix_strategy_request_duration_seconds", "strategy", st, g.stratLatency[st].Snapshot())
	}

	snap := g.ix.Stats().Snapshot()
	metric("flix_engine_queries_total", "counter", "Completed index evaluations.", snap.Queries)
	metric("flix_engine_pops_total", "counter", "Priority-queue pops in the evaluator.", snap.Pops)
	metric("flix_engine_entries_total", "counter", "Meta-document entry points processed.", snap.Entries)
	metric("flix_engine_dup_dropped_total", "counter", "Frontier entries dropped as duplicates: stale or already covered.", snap.DupDropped)
	metric("flix_engine_dup_stale_total", "counter", "Duplicate drops that were stale: the node was queued again nearer and that copy popped first.", snap.StaleDropped)
	metric("flix_engine_link_hops_total", "counter", "Runtime link traversals.", snap.LinkHops)
	metric("flix_engine_results_total", "counter", "Results emitted by the evaluator.", snap.Results)

	if g.cache != nil {
		hits, misses := g.cache.Counts()
		metric("flix_cache_hits_total", "counter", "Query-cache hits.", hits)
		metric("flix_cache_misses_total", "counter", "Query-cache misses.", misses)
		metric("flix_cache_entries", "gauge", "Cached query streams.", g.cache.Len())
		metric("flix_cache_inherited_queries", "gauge", "Entries the generation's warmer carried over unevaluated from its predecessor's cache: both generations were opened from byte-identical snapshots.", g.inherited.Load())
		metric("flix_cache_warmed_queries", "gauge", "Streams the generation's warmer has evaluated and stored from its predecessor's working set.", g.warmed.Load())
		metric("flix_cache_warm_pending", "gauge", "Keys the warmer has yet to deal with (0 once warm).", g.warmPending.Load())
	}

	metric("flix_index_meta_documents", "gauge", "Meta documents in the index.", g.ix.NumMetaDocuments())
	metric("flix_index_runtime_links", "gauge", "Links followed at query time.", g.ix.RuntimeLinks())
	front.MetricHead(p, "flix_index_strategy_meta_documents", "gauge", "Meta documents per indexing strategy.")
	counts := g.ix.StrategyCounts()
	for _, n := range front.SortedKeys(counts) {
		p("flix_index_strategy_meta_documents{strategy=%q} %d\n", n, counts[n])
	}

	bs := g.ix.BuildStats()
	metric("flix_build_partition_seconds", "gauge", "Build phase: meta-document partitioning time.", bs.Partition.Seconds())
	metric("flix_build_select_seconds", "gauge", "Build phase: summed strategy-selection time.", bs.Select.Seconds())
	metric("flix_build_index_seconds", "gauge", "Build phase: wall time of index construction.", bs.IndexBuild.Seconds())
	front.MetricHead(p, "flix_build_strategy_seconds", "gauge", "Build phase: summed index construction time per strategy.")
	for _, n := range front.SortedKeys(bs.Strategies) {
		p("flix_build_strategy_seconds{strategy=%q} %s\n", n, obs.FormatFloat(bs.Strategies[n].Total.Seconds()))
	}
}
