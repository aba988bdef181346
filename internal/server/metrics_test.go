package server

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/flix"
)

// sampleLine matches one exposition sample: a metric name, an optional
// label set with double-quoted values, and a value.
var sampleLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? (\S+)$`)

// exposition is a parsed /metrics payload.
type exposition struct {
	types   map[string]string  // metric family -> counter|gauge|histogram
	help    map[string]bool    // families with a HELP line
	samples map[string]float64 // full series (name{labels}) -> value
	order   []string           // series in exposition order
}

// scrape fetches and parses /metrics, failing the test on any line that is
// neither a comment nor a well-formed sample, and on samples whose family
// lacks a preceding HELP/TYPE pair.
func scrape(t *testing.T, url string) *exposition {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain", ct)
	}
	e := &exposition{
		types:   make(map[string]string),
		help:    make(map[string]bool),
		samples: make(map[string]float64),
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Errorf("HELP without text: %q", line)
			}
			e.help[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || (kind != "counter" && kind != "gauge" && kind != "histogram") {
				t.Errorf("bad TYPE line: %q", line)
			}
			if !e.help[name] {
				t.Errorf("TYPE for %s without a preceding HELP", name)
			}
			if _, dup := e.types[name]; dup {
				t.Errorf("duplicate TYPE for %s", name)
			}
			e.types[name] = kind
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
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
		family := name
		if e.types[family] == "" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suf); e.types[base] == "histogram" {
					family = base
					break
				}
			}
		}
		if e.types[family] == "" {
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

// scrapeUntil polls /metrics until the predicate holds (latency histograms
// are recorded just after the response is written, so a scrape racing the
// request's tail can be one observation behind).
func scrapeUntil(t *testing.T, url string, ok func(*exposition) bool) *exposition {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		e := scrape(t, url)
		if ok(e) || time.Now().After(deadline) {
			return e
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMetricsExpositionFormat checks the hand-rolled /metrics output against
// the Prometheus text-format rules: HELP/TYPE pairing, label syntax, bucket
// cumulativity, and counter monotonicity across scrapes.
func TestMetricsExpositionFormat(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	hit := func(n int) {
		for i := 0; i < n; i++ {
			resp, err := http.Get(ts.URL + "/v1/descendants?start=movies.xml&tag=actor")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}
	hit(3)
	countSeries := `flix_request_duration_seconds_count{endpoint="descendants"}`
	first := scrapeUntil(t, ts.URL, func(e *exposition) bool { return e.samples[countSeries] == 3 })

	// The per-endpoint histogram must exist with cumulative buckets ending
	// in a +Inf bucket that equals _count.
	var prev uint64
	var buckets int
	for _, series := range first.order {
		if !strings.HasPrefix(series, `flix_request_duration_seconds_bucket{endpoint="descendants",`) {
			continue
		}
		v := uint64(first.samples[series])
		if v < prev {
			t.Errorf("bucket counts not cumulative at %s: %d < %d", series, v, prev)
		}
		prev = v
		buckets++
	}
	if buckets < 2 {
		t.Fatalf("found %d descendants duration buckets, want >= 2", buckets)
	}
	inf := first.samples[`flix_request_duration_seconds_bucket{endpoint="descendants",le="+Inf"}`]
	count := first.samples[countSeries]
	if inf != count || count != 3 {
		t.Errorf("+Inf bucket = %v, _count = %v, want both 3", inf, count)
	}
	if sum := first.samples[`flix_request_duration_seconds_sum{endpoint="descendants"}`]; sum <= 0 {
		t.Errorf("_sum = %v, want > 0", sum)
	}

	// Counters must be monotone non-decreasing across scrapes.
	hit(2)
	second := scrapeUntil(t, ts.URL, func(e *exposition) bool { return e.samples[countSeries] == 5 })
	for series, v2 := range second.samples {
		name := strings.SplitN(series, "{", 2)[0]
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); second.types[base] == "histogram" {
				family = base
			}
		}
		kind := second.types[family]
		if kind != "counter" && kind != "histogram" {
			continue
		}
		if v1, ok := first.samples[series]; ok && v2 < v1 {
			t.Errorf("%s went backwards: %v -> %v", series, v1, v2)
		}
	}
	if d2 := second.samples[countSeries]; d2 != 5 {
		t.Errorf("after 5 requests _count = %v, want 5", d2)
	}
	if got := second.samples[fmt.Sprintf("flix_requests_total{endpoint=%q}", "descendants")]; got != 5 {
		t.Errorf("flix_requests_total = %v, want 5", got)
	}

	// A swap shows as two events: the publish latency at once, the warm-up
	// as gauges that settle once the one hot key has been taken over.
	next, err := flix.Build(s.CurrentIndex().Collection(), flix.Config{Kind: flix.MaximalPPO})
	if err != nil {
		t.Fatal(err)
	}
	s.Install(next, "swap")
	third := scrapeUntil(t, ts.URL, func(e *exposition) bool { return e.samples["flix_cache_warmed_queries"] == 1 })
	for _, name := range []string{"flix_install_duration_seconds", "flix_cache_warmed_queries", "flix_cache_warm_pending"} {
		if third.types[name] != "gauge" {
			t.Errorf("%s declared %q, want gauge", name, third.types[name])
		}
	}
	if d := third.samples["flix_install_duration_seconds"]; d <= 0 || d > 1 {
		t.Errorf("flix_install_duration_seconds = %v, want the sub-second publish latency of the last Install", d)
	}
	if w, p := third.samples["flix_cache_warmed_queries"], third.samples["flix_cache_warm_pending"]; w != 1 || p != 0 {
		t.Errorf("after the swap warmed/pending = %v/%v, want 1/0", w, p)
	}
}

// TestMetricsRuntimeGauges checks the Go runtime gauges ride on the flixd
// /metrics endpoint — and render even before the first index generation.
func TestMetricsRuntimeGauges(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	e := scrape(t, ts.URL)
	for series, kind := range map[string]string{
		"go_goroutines":                "gauge",
		"go_memstats_heap_alloc_bytes": "gauge",
		"go_gc_cycles_total":           "counter",
		"go_gc_pause_seconds_total":    "counter",
	} {
		if e.types[series] != kind {
			t.Errorf("%s declared %q, want %q", series, e.types[series], kind)
		}
		if v, ok := e.samples[series]; !ok || v < 0 {
			t.Errorf("%s = %v (present=%v), want >= 0", series, v, ok)
		}
	}
	if e.samples["go_goroutines"] <= 0 {
		t.Errorf("go_goroutines = %v, want > 0", e.samples["go_goroutines"])
	}
}

// TestMetricsStrategyHistogram checks requests are attributed to the
// indexing strategy serving the start node's meta document.
func TestMetricsStrategyHistogram(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/descendants?start=movies.xml&tag=actor")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	total := func(e *exposition) float64 {
		sum := 0.0
		for name := range s.CurrentIndex().StrategyCounts() {
			sum += e.samples[fmt.Sprintf("flix_strategy_request_duration_seconds_count{strategy=%q}", name)]
		}
		return sum
	}
	e := scrapeUntil(t, ts.URL, func(e *exposition) bool { return total(e) == 1 })
	if got := total(e); got != 1 {
		t.Errorf("per-strategy _count total = %v, want 1", got)
	}
}
