package shard

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/front"
	"repro/internal/obs"
)

// handleHealthz reports aggregate readiness: 200 once the topology is
// loaded and a quorum of shards is up, 503 (with the same JSON body)
// otherwise, so orchestrators and the shard client read one shape.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ready := rt.Ready()
	readyShards := rt.readyShards()
	status := "ok"
	switch {
	case !ready:
		status = "starting"
	case readyShards < len(rt.shards):
		status = "degraded"
	}
	shards := make([]map[string]any, len(rt.shards))
	for i, st := range rt.shards {
		shards[i] = map[string]any{
			"id":         i,
			"url":        st.url,
			"ready":      st.ready.Load(),
			"saturated":  st.saturated.Load(),
			"generation": st.generation.Load(),
		}
		if e := st.errString(); e != "" {
			shards[i]["error"] = e
		}
	}
	body := map[string]any{
		"status":      status,
		"ready":       ready,
		"readyShards": readyShards,
		"shards":      len(rt.shards),
		"quorum":      rt.cfg.Quorum,
		"inFlight":    rt.front.InFlight(),
		"maxInFlight": rt.front.MaxInFlight(),
		"uptime":      time.Since(rt.started).Round(time.Millisecond).String(),
		"shardStates": shards,
	}
	if !ready {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	front.OK(w, body)
}

// handleStatsz renders the router's operational counters plus a per-shard
// section: probe state, backpressure and the shard RPC latency quantiles.
func (rt *Router) handleStatsz(w http.ResponseWriter, r *http.Request) {
	topoSection := map[string]any{"loaded": false}
	if topo := rt.topo.Load(); topo != nil {
		topoSection = map[string]any{
			"loaded":      true,
			"metas":       len(topo.owner),
			"nodes":       len(topo.metaOf),
			"fingerprint": topo.fingerprint,
			"loadedFrom":  topo.loadedFrom,
		}
	}
	latency := map[string]any{}
	for ep, h := range rt.front.Latency() {
		sn := h.Snapshot()
		latency[ep] = map[string]any{
			"count": sn.Count,
			"p50":   durString(sn.Quantile(0.50)),
			"p99":   durString(sn.Quantile(0.99)),
		}
	}
	scatter := map[string]any{"hopBudget": rt.cfg.HopBudget}
	for _, st := range rt.scatterStats() {
		scatter[st.key] = st.value
	}
	shards := make([]map[string]any, len(rt.shards))
	for i, st := range rt.shards {
		sn := rt.shardLatency[i].Snapshot()
		tx, rx := rt.client.WireBytes(i)
		shards[i] = map[string]any{
			"id":          i,
			"url":         st.url,
			"ready":       st.ready.Load(),
			"saturated":   st.saturated.Load(),
			"generation":  st.generation.Load(),
			"inFlight":    st.inFlight.Load(),
			"maxInFlight": st.maxInFlight.Load(),
			"probes":      st.probes.Load(),
			"probeFails":  st.probeFails.Load(),
			"consecFails": st.consecFails.Load(),
			"rpcs":        st.rpcs.Load(),
			"rpcErrors":   st.rpcErrors.Load(),
			"results":     st.results.Load(),
			"wireTxBytes": tx,
			"wireRxBytes": rx,
			"rpcCount":    sn.Count,
			"rpcP50":      durString(sn.Quantile(0.50)),
			"rpcP99":      durString(sn.Quantile(0.99)),
		}
		if e := st.errString(); e != "" {
			shards[i]["lastError"] = e
		}
	}
	front.OK(w, map[string]any{
		"ready":    rt.Ready(),
		"uptime":   time.Since(rt.started).Round(time.Millisecond).String(),
		"topology": topoSection,
		"requests": map[string]any{
			"descendants":  rt.front.Requests("descendants"),
			"connected":    rt.front.Requests("connected"),
			"query":        rt.front.Requests("query"),
			"batch":        rt.front.Requests("batch"),
			"shed":         rt.front.Shed.Load(),
			"notReady":     rt.front.NotReady.Load(),
			"timeouts":     rt.front.Timeouts.Load(),
			"clientErrors": rt.front.ClientErrors.Load(),
			"inFlight":     rt.front.InFlight(),
			"maxInFlight":  rt.front.MaxInFlight(),
		},
		"scatter":     scatter,
		"latency":     latency,
		"shardStates": shards,
	})
}

// scatterStat is one row of the router's scatter section: /metrics
// renders it as the flix_router_<metric> family, /statsz as key in the
// "scatter" object.
type scatterStat struct {
	metric, kind, key, help string
	value                   any
}

// scatterStats lists the scatter section in /metrics order.
func (rt *Router) scatterStats() []scatterStat {
	rt.scatterMu.Lock()
	c := rt.scatter
	rt.scatterMu.Unlock()
	return []scatterStat{
		{"fanouts_total", "counter", "fanouts", "Shard RPC batches dispatched.", c.fanouts},
		{"gathers_total", "counter", "gathers", "Scatter-gather evaluations executed.", c.gathers},
		{"rounds_total", "counter", "rounds", "Scatter-gather rounds executed.", c.rounds},
		{"rounds_per_gather", "gauge", "roundsPerGather", "Mean re-dispatch rounds per gather since start.", ratio(c.rounds, c.gathers)},
		{"hops_total", "counter", "hops", "Cross-shard hop entries returned by shards.", c.hopsSeen},
		{"hops_deduped_total", "counter", "hopsDeduped", "Hop entries dropped by the best-distance map.", c.hopsDeduped},
		{"hops_redispatched_total", "counter", "hopsRedispatched", "Hop entries re-dispatched to their owning shard.", c.hopsRedispatched},
		{"hops_bounded_total", "counter", "hopsBounded", "Staged hop entries the top-k distance bound removed before a dispatch.", c.hopsBounded},
		{"early_stops_total", "counter", "earlyStops", "Gathers ended by the top-k or connectivity watermark.", c.earlyStops},
		{"budget_stops_total", "counter", "budgetStops", "Gathers that exhausted the hop budget.", c.budgetStops},
		{"partial_results_total", "counter", "partials", "Gathers that lost work.", c.partials},
		{"shard_failures_total", "counter", "shardFailures", "Shard batches dropped after retries.", c.shardFailures},
		{"traced_queries_total", "counter", "tracedQueries", "Queries evaluated with ?trace=1 distributed tracing.", rt.tracedQueries.Load()},
	}
}

func durString(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// ratio guards the rounds-per-gather division against a fresh router.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// handleMetrics renders the router counters in the Prometheus text format:
// the families every tier shares come from the front, the shard, scatter
// and per-shard RPC families from here.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	metric := func(name, kind, help string, v any) { front.Metric(p, "flix_router_"+name, kind, help, v) }
	rt.front.WriteMetrics(p)

	metric("shards_ready", "gauge", "Shards currently probing ready.", rt.readyShards())
	metric("shards", "gauge", "Configured shards.", len(rt.shards))
	for _, st := range rt.scatterStats() {
		metric(st.metric, st.kind, st.help, st.value)
	}

	front.MetricHead(p, "flix_router_shard_rpc_duration_seconds", "histogram", "Shard RPC latency by shard.")
	for i := range rt.shards {
		obs.WriteHistogramText(p, "flix_router_shard_rpc_duration_seconds", "shard", strconv.Itoa(i), rt.shardLatency[i].Snapshot())
	}
	front.MetricHead(p, "flix_router_shard_rpcs_total", "counter", "Eval RPCs dispatched, by shard.")
	for i, st := range rt.shards {
		p("flix_router_shard_rpcs_total{shard=\"%d\"} %d\n", i, st.rpcs.Load())
	}
	front.MetricHead(p, "flix_router_shard_rpc_errors_total", "counter", "Eval RPCs that failed after retries, by shard.")
	for i, st := range rt.shards {
		p("flix_router_shard_rpc_errors_total{shard=\"%d\"} %d\n", i, st.rpcErrors.Load())
	}
	// These two are what a result limit on the wire shrinks.  Their names
	// must not start with flix_router_shard_rpcs_total, _rpc_errors_total or
	// _rpc_duration_seconds_: the benchmark sums series by those prefixes.
	front.MetricHead(p, "flix_router_shard_results_total", "counter", "Result entries carried by eval answers, by shard.")
	for i, st := range rt.shards {
		p("flix_router_shard_results_total{shard=\"%d\"} %d\n", i, st.results.Load())
	}
	front.MetricHead(p, "flix_router_shard_wire_bytes_total", "counter", "Eval frame bytes sent to (tx) and received from (rx) each shard, retries included.")
	for i := range rt.shards {
		tx, rx := rt.client.WireBytes(i)
		p("flix_router_shard_wire_bytes_total{shard=\"%d\",dir=\"tx\"} %d\n", i, tx)
		p("flix_router_shard_wire_bytes_total{shard=\"%d\",dir=\"rx\"} %d\n", i, rx)
	}
	front.MetricHead(p, "flix_router_shard_ready", "gauge", "Per-shard readiness.")
	for i, st := range rt.shards {
		v := 0
		if st.ready.Load() {
			v = 1
		}
		p("flix_router_shard_ready{shard=\"%d\"} %d\n", i, v)
	}
}
