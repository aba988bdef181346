package shard_test

// The router /metrics round trip: scrape the hand-rolled Prometheus text
// exposition, parse every line back, and check the scatter-gather counters
// against the work the cluster actually did.  The parser rejects anything a
// real Prometheus scraper would: samples without HELP/TYPE, malformed label
// sets, duplicate series, non-cumulative histogram buckets.

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

// promSample matches one exposition sample line: name, optional label set
// with double-quoted values, value.
var promSample = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? (\S+)$`)

// promText is a parsed /metrics payload.
type promText struct {
	types   map[string]string  // metric family -> counter|gauge|histogram
	samples map[string]float64 // full series (name{labels}) -> value
	order   []string           // series in exposition order
}

// scrapeMetrics fetches and parses <base>/metrics, failing the test on any
// malformed line or on samples whose family lacks a HELP/TYPE pair.
func scrapeMetrics(t *testing.T, base string) *promText {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain", ct)
	}
	e := &promText{types: make(map[string]string), samples: make(map[string]float64)}
	help := make(map[string]bool)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, ok := strings.Cut(rest, " ")
			if !ok || text == "" {
				t.Errorf("HELP without text: %q", line)
			}
			help[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || (kind != "counter" && kind != "gauge" && kind != "histogram") {
				t.Errorf("bad TYPE line: %q", line)
			}
			if !help[name] {
				t.Errorf("TYPE for %s without a preceding HELP", name)
			}
			if _, dup := e.types[name]; dup {
				t.Errorf("duplicate TYPE for %s", name)
			}
			e.types[name] = kind
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		name, labels, raw := m[1], m[2], m[3]
		var v float64
		if raw == "+Inf" {
			v = math.Inf(1)
		} else if v, err = strconv.ParseFloat(raw, 64); err != nil {
			t.Errorf("bad value in %q: %v", line, err)
			continue
		}
		if e.family(name) == "" {
			t.Errorf("sample %s without a TYPE declaration", name)
		}
		series := name + labels
		if _, dup := e.samples[series]; dup {
			t.Errorf("duplicate series %s", series)
		}
		e.samples[series] = v
		e.order = append(e.order, series)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return e
}

// family resolves a sample name to its declared metric family, mapping
// histogram _bucket/_sum/_count children onto the parent.
func (e *promText) family(name string) string {
	if e.types[name] != "" {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suf); e.types[base] == "histogram" {
			return base
		}
	}
	return ""
}

// TestRouterMetricsExposition drives real traffic through a 2-shard cluster
// and round-trips the router's /metrics: format validity, the scatter and
// tracing counter families, per-shard series, runtime gauges, histogram
// bucket cumulativity and counter monotonicity across scrapes.
func TestRouterMetricsExposition(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 5, 10, 40, 30)
	ix := buildIndex(t, coll)
	c := newCluster(t, coll, ix, 2, 0)
	tags := coll.Tags()
	hit := func(n int, traced bool) {
		for i := 0; i < n; i++ {
			var dr struct {
				Rounds int `json:"rounds"`
			}
			path := fmt.Sprintf("/v1/descendants?start=%d&tag=%s&k=1000&timeout=20s", i%coll.NumNodes(), tags[i%len(tags)])
			if traced {
				path += "&trace=1"
			}
			c.getJSON(path, &dr)
		}
	}
	hit(4, false)
	hit(2, true)

	first := scrapeMetrics(t, c.router.URL)

	// Every family the dashboards read must be declared and populated.
	for series, want := range map[string]float64{
		"flix_router_ready":  1,
		"flix_router_shards": 2,
		`flix_router_requests_total{endpoint="descendants"}`: 6,
		"flix_router_gathers_total":                          6,
		"flix_router_traced_queries_total":                   2,
		"flix_router_partial_results_total":                  0,
		"flix_router_shard_failures_total":                   0,
	} {
		if got, ok := first.samples[series]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", series, got, ok, want)
		}
	}
	// Work counters must be present and self-consistent even where the exact
	// value depends on the partitioning.
	rounds := first.samples["flix_router_rounds_total"]
	gathers := first.samples["flix_router_gathers_total"]
	if rounds < gathers {
		t.Errorf("rounds_total %v < gathers_total %v — every gather runs at least one round", rounds, gathers)
	}
	if fanouts := first.samples["flix_router_fanouts_total"]; fanouts < rounds {
		t.Errorf("fanouts_total %v < rounds_total %v — every round dispatches at least one batch", fanouts, rounds)
	}
	if rpg := first.samples["flix_router_rounds_per_gather"]; math.Abs(rpg-rounds/gathers) > 1e-9 {
		t.Errorf("rounds_per_gather = %v, want %v/%v", rpg, rounds, gathers)
	}
	hops := first.samples["flix_router_hops_total"]
	redis := first.samples["flix_router_hops_redispatched_total"]
	dedup := first.samples["flix_router_hops_deduped_total"]
	if hops != redis+dedup {
		t.Errorf("hops_total %v != redispatched %v + deduped %v (no budget or maxdist in play)", hops, redis, dedup)
	}
	// Per-shard series: one rpcs/errors/results/ready sample and a tx and an
	// rx wire-bytes sample per configured shard, and both shards did work on
	// this corpus.
	for _, fam := range []string{"flix_router_shard_results_total", "flix_router_shard_wire_bytes_total"} {
		if first.types[fam] != "counter" {
			t.Errorf("%s declared as %q, want counter", fam, first.types[fam])
		}
	}
	var rpcTotal float64
	for sh := 0; sh < 2; sh++ {
		if v, ok := first.samples[fmt.Sprintf("flix_router_shard_results_total{shard=%q}", strconv.Itoa(sh))]; !ok || v <= 0 {
			t.Errorf("shard %d results series missing or zero: %v", sh, v)
		}
		for _, dir := range []string{"tx", "rx"} {
			if v, ok := first.samples[fmt.Sprintf("flix_router_shard_wire_bytes_total{shard=%q,dir=%q}", strconv.Itoa(sh), dir)]; !ok || v <= 0 {
				t.Errorf("shard %d wire bytes %s series missing or zero: %v", sh, dir, v)
			}
		}
		rpcs, ok := first.samples[fmt.Sprintf("flix_router_shard_rpcs_total{shard=%q}", strconv.Itoa(sh))]
		if !ok || rpcs <= 0 {
			t.Errorf("shard %d rpcs series missing or zero: %v", sh, rpcs)
		}
		rpcTotal += rpcs
		if _, ok := first.samples[fmt.Sprintf("flix_router_shard_rpc_errors_total{shard=%q}", strconv.Itoa(sh))]; !ok {
			t.Errorf("shard %d rpc_errors series missing", sh)
		}
		if v := first.samples[fmt.Sprintf("flix_router_shard_ready{shard=%q}", strconv.Itoa(sh))]; v != 1 {
			t.Errorf("shard %d ready = %v, want 1", sh, v)
		}
	}
	if fanouts := first.samples["flix_router_fanouts_total"]; rpcTotal != fanouts {
		t.Errorf("per-shard rpcs sum %v != fanouts_total %v", rpcTotal, fanouts)
	}
	// Runtime gauges ride on the same endpoint.
	if v := first.samples["go_goroutines"]; v <= 0 {
		t.Errorf("go_goroutines = %v, want > 0", v)
	}
	if v := first.samples["go_memstats_heap_alloc_bytes"]; v <= 0 {
		t.Errorf("go_memstats_heap_alloc_bytes = %v, want > 0", v)
	}

	// The latency histogram must have cumulative buckets whose +Inf equals
	// _count.  The histogram is observed just after the response is written,
	// so poll briefly for the last request's sample.
	countSeries := `flix_router_request_duration_seconds_count{endpoint="descendants"}`
	deadline := time.Now().Add(2 * time.Second)
	for first.samples[countSeries] != 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		first = scrapeMetrics(t, c.router.URL)
	}
	var prev float64
	buckets := 0
	for _, series := range first.order {
		if !strings.HasPrefix(series, `flix_router_request_duration_seconds_bucket{endpoint="descendants",`) {
			continue
		}
		if v := first.samples[series]; v < prev {
			t.Errorf("bucket counts not cumulative at %s: %v < %v", series, v, prev)
		} else {
			prev = v
		}
		buckets++
	}
	if buckets < 2 {
		t.Fatalf("found %d descendants duration buckets, want >= 2", buckets)
	}
	if inf := first.samples[`flix_router_request_duration_seconds_bucket{endpoint="descendants",le="+Inf"}`]; inf != first.samples[countSeries] {
		t.Errorf("+Inf bucket %v != _count %v", inf, first.samples[countSeries])
	}

	// Counters stay monotone across scrapes while more traffic lands.
	hit(3, true)
	second := scrapeMetrics(t, c.router.URL)
	for series, v2 := range second.samples {
		name := strings.SplitN(series, "{", 2)[0]
		kind := second.types[second.family(name)]
		if kind != "counter" && kind != "histogram" {
			continue
		}
		if v1, ok := first.samples[series]; ok && v2 < v1 {
			t.Errorf("%s went backwards: %v -> %v", series, v1, v2)
		}
	}
	if got := second.samples["flix_router_traced_queries_total"]; got != 5 {
		t.Errorf("traced_queries_total = %v, want 5", got)
	}
}
