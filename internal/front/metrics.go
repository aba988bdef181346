package front

import (
	"net/http"
	"sort"

	"repro/internal/obs"
)

// SortedKeys returns the map's keys in sorted order, for a deterministic
// exposition.
func SortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MetricHead writes the HELP and TYPE lines that open a metric family.
func MetricHead(p func(format string, args ...any), name, kind, help string) {
	p("# HELP %s %s\n", name, help)
	p("# TYPE %s %s\n", name, kind)
}

// Metric renders one unlabelled metric: HELP, TYPE and the sample.  Floats
// take the Prometheus shortest form, everything else prints as is.
func Metric(p func(format string, args ...any), name, kind, help string, v any) {
	MetricHead(p, name, kind, help)
	if f, ok := v.(float64); ok {
		v = obs.FormatFloat(f)
	}
	p("%s %v\n", name, v)
}

// WriteMetrics renders the metric families every tier shares — readiness,
// the admission counters, the per-endpoint request counters and latency
// histograms, the Go runtime gauges — in the Prometheus text format through
// the caller's printf-style sink, under the tier's MetricPrefix.  The tier
// writes its own families after them.  Every admitted endpoint appears in
// both per-endpoint families.
func (f *Front) WriteMetrics(p func(format string, args ...any)) {
	px := f.cfg.MetricPrefix + "_"
	ready := 1
	if code, _ := f.tier.Gate(); code == http.StatusServiceUnavailable {
		ready = 0
	}
	Metric(p, px+"ready", "gauge", "Whether the tier answers queries (readiness).", ready)
	Metric(p, px+"requests_not_ready_total", "counter", "Requests answered 503 before the tier was ready.", f.NotReady.Load())
	Metric(p, px+"requests_shed_total", "counter", "Requests rejected with 429: this tier, or everything behind it, at capacity.", f.Shed.Load())
	Metric(p, px+"request_timeouts_total", "counter", "Requests whose deadline expired while they were handled.", f.Timeouts.Load())
	Metric(p, px+"client_errors_total", "counter", "Requests rejected with a 4xx other than 429.", f.ClientErrors.Load())
	Metric(p, px+"inflight_requests", "gauge", "Requests currently holding an admission slot.", f.InFlight())

	endpoints := SortedKeys(f.requests)
	MetricHead(p, px+"requests_total", "counter", "Requests received, by endpoint.")
	for _, ep := range endpoints {
		p("%srequests_total{endpoint=%q} %d\n", px, ep, f.requests[ep].Load())
	}
	MetricHead(p, px+"request_duration_seconds", "histogram", "Latency of admitted requests, by endpoint.")
	for _, ep := range endpoints {
		obs.WriteHistogramText(p, px+"request_duration_seconds", "endpoint", ep, f.latency[ep].Snapshot())
	}
	obs.WriteGoRuntimeText(p)
}
