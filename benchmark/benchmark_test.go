package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark's own: started
// with refArg it serves reference laps, as main does.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == refArg {
		if err := serveReference(os.Stdin, os.Stdout); err != nil {
			os.Exit(2)
		}
		return
	}
	os.Exit(m.Run())
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.95, 100}, {0.01, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
}

// The reference values are Python's statistics.quantiles(vs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
	} {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

// lapOf builds a lap with the given wall and CPU milliseconds whose samples
// are 1..n milliseconds.
func lapOf(wallMs, cpuMs float64, n int) lap {
	l := lap{wall: time.Duration(wallMs * 1e6), cpu: time.Duration(cpuMs * 1e6)}
	for i := 1; i <= n; i++ {
		l.samples = append(l.samples, sample{op: int32(i - 1), ns: int64(i) * 1e6})
	}
	return l
}

func TestEndToEndReportsTheMedianLap(t *testing.T) {
	// Three laps of 200 ops: enough samples per lap to carry p95, so the
	// latencies are per lap; one slow lap moves nothing.
	laps := []lap{lapOf(1000, 1600, 200), lapOf(5000, 9000, 200), lapOf(1100, 1800, 200)}
	got := endToEnd(laps, 200, 0.95)
	for name, want := range map[string]float64{"ops_per_s": 200 / 1.1, "cpu_ms_per_op": 9, "p50_ms": 100, "tail_ms": 190} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	// Laps of 4 ops carry no tail of their own: percentiles over all twelve
	// samples (1,1,1,2,2,2,3,3,3,4,4,4 ms), p75 the ninth.
	small := []lap{lapOf(10, 10, 4), lapOf(10, 10, 4), lapOf(10, 10, 4)}
	got = endToEnd(small, 4, 0.75)
	if got["p50_ms"] != 2 || got["tail_ms"] != 3 {
		t.Errorf("pooled p50 %v and p75 %v, want 2 and 3", got["p50_ms"], got["tail_ms"])
	}
}

func TestClockScale(t *testing.T) {
	if got := clockScale([]float64{0.4, 0.1, 0.3}); math.Abs(got-refNominal.Seconds()/0.3) > 1e-12 {
		t.Errorf("scale = %v", got)
	}
}

// The tail each workload reports must be one its samples can carry: a lap's
// where latencies are per lap, a run's otherwise (reopen-mapped completes
// at least 60 ops in 20 s).
func TestWorkloadTailsAreSupported(t *testing.T) {
	c := newCorpus(fullDocs)
	for _, w := range workloads {
		n := len(genOps(w.name, c, 1, false))
		if w.name == "reopen-mapped" {
			n = 60
		}
		if w.tail > 0.95 || supportedTail(n) < w.tail {
			t.Errorf("%s: tail %v, %d samples support %v", w.name, w.tail, n, supportedTail(n))
		}
	}
}

func TestDescColdIsEvaluatorBound(t *testing.T) {
	c := newCorpus(fullDocs)
	n := len(c.pubs.Pubs)
	for _, o := range genOps("desc-cold", c, 2, false) {
		d := int(c.coll.DocOf(o.start))
		if d < n/2 || o.start != c.root(d) {
			t.Fatalf("%s starts at node %d of document %d: not a root of the newer half", o.target, o.start, d)
		}
		if o.tag != "article" && o.tag != "phdthesis" && o.tag != "book" {
			t.Fatalf("%s asks for a common tag", o.target)
		}
	}
}

func TestPromDelta(t *testing.T) {
	const before = `# HELP flix_requests_total Query requests received, by endpoint.
# TYPE flix_requests_total counter
flix_requests_total{endpoint="descendants"} 10
flix_request_duration_seconds_sum{endpoint="descendants"} 0.5
flix_request_duration_seconds_count{endpoint="descendants"} 10
flix_router_shard_rpcs_total{shard="0"} 3
flix_router_shard_rpcs_total{shard="1"} 4
`
	const after = `flix_requests_total{endpoint="descendants"} 30
flix_request_duration_seconds_sum{endpoint="descendants"} 0.9
flix_request_duration_seconds_count{endpoint="descendants"} 30
flix_router_shard_rpcs_total{shard="0"} 13
flix_router_shard_rpcs_total{shard="1"} 24
flix_engine_pops_total 7
odd_label{msg="two words"} 1.5e3
`
	b, a := promSample{}, promSample{}
	if err := parseProm(strings.NewReader(before), b); err != nil {
		t.Fatal(err)
	}
	// Two servers' expositions merge by summing.
	if err := parseProm(strings.NewReader(after), a); err != nil {
		t.Fatal(err)
	}
	d := a.delta(b)
	if got := d[`flix_requests_total{endpoint="descendants"}`]; got != 20 {
		t.Errorf("requests delta = %v", got)
	}
	if got := d["flix_engine_pops_total"]; got != 7 {
		t.Errorf("series absent before should count from zero, got %v", got)
	}
	if got := d.meanMs("flix_request_duration_seconds", "endpoint", "descendants"); math.Abs(got-20) > 1e-9 {
		t.Errorf("mean = %v ms, want 20", got)
	}
	if got := d.sumPrefix("flix_router_shard_rpcs_total"); got != 30 {
		t.Errorf("rpcs over shards = %v, want 30", got)
	}
	if got := a[`odd_label{msg="two words"}`]; got != 1500 {
		t.Errorf("label value with a space parsed as %v", got)
	}
	if err := parseProm(strings.NewReader("novalue\n"), promSample{}); err == nil {
		t.Error("a line without a value must be an error")
	}
	if err := parseProm(strings.NewReader(after+after), a); err != nil || a["flix_engine_pops_total"] != 21 {
		t.Errorf("repeated series should sum, got %v (%v)", a["flix_engine_pops_total"], err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: union is 10..60
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out: only 90..100 counts
		{ID: 5, Parent: 2, Name: "replayed", Start: 500, End: 520, Replay: true},
		{ID: 6, Parent: 3, Name: "too long", Start: 0, End: 1000, Replay: true},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 40, 2: 10, 3: 0, 4: 30, 5: 20, 6: 1000} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderPauseAndNil(t *testing.T) {
	var none *recorder
	l := none.log()
	sp := l.begin("x", 0, 0, false)
	l.end(sp)
	if l.id(sp) != 0 {
		t.Error("a nil log must hand out no IDs")
	}
	rec := newRecorder()
	l = rec.log()
	a := l.begin("a", 0, 1, false)
	l.end(a)
	rec.paused = true
	b := l.begin("b", l.id(a), 1, false)
	l.end(b)
	rec.paused = false
	if got := rec.all(); len(got) != 1 || got[0].Name != "a" || got[0].End < got[0].Start {
		t.Errorf("recorded %+v", got)
	}
}

func TestOpListsRepeatPerSeed(t *testing.T) {
	c := newCorpus(smokeDocs)
	for _, w := range workloads {
		a := renderOps(genOps(w.name, c, 7, true))
		b := renderOps(genOps(w.name, c, 7, true))
		other := renderOps(genOps(w.name, c, 8, true))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two op lists of seed 7 differ", w.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 give the same op list", w.name)
		}
		if len(a) == 0 {
			t.Errorf("%s: empty op list", w.name)
		}
	}
}

func TestMixedWarmShares(t *testing.T) {
	c := newCorpus(fullDocs)
	count := map[opClass]int{}
	ops := genOps("mixed-warm", c, 3, false)
	hub := c.root(c.pubs.HubIndex)
	for _, o := range ops {
		count[o.class]++
		if o.start == hub {
			t.Fatalf("the hub is a start of %s", o.target)
		}
		if o.class == classBatch && len(o.items) != 32 {
			t.Fatalf("batch of %d", len(o.items))
		}
	}
	want := map[opClass]int{classDesc: 800, classTraced: 300, classConnected: 300, classRanked: 400, classBatch: 200}
	for class, n := range want {
		if count[class] != n {
			t.Errorf("%s: %d ops, want %d", classNames[class], count[class], n)
		}
	}
}

// TestSmoke runs every workload end to end on the 200-document corpus,
// untraced and traced: real servers, verification pass, timed laps, metrics.
func TestSmoke(t *testing.T) {
	spec := readBenchmarkJSON(t)
	dir := t.TempDir()
	chdir(t, dir) // the snapshot scratch directory is relative
	traceDir = filepath.Join(dir, "out")
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runWorkload(w, options{seed: 5, seconds: 0.3, traced: traced, smoke: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 || rec.Env.Verified == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d verified=%d",
					w.name, traced, rec.Correct, rec.Failed, rec.Attempted, rec.Env.Verified)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", w.name, traced, m.Name, got, ok, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, got.Value)
				}
			}
			if traced {
				checkTraced(t, w, rec)
			}
		}
	}
}

// checkTraced holds the traced run to what the layers must show on each
// workload.
func checkTraced(t *testing.T, w workload, rec *record) {
	t.Helper()
	v := func(name string) float64 { return rec.Metrics[name].Value }
	if _, err := os.Stat(filepath.Join(traceDir, "trace-"+w.name+".json")); err != nil {
		t.Errorf("%s: no trace file: %v", w.name, err)
	}
	if v("client.error_rate") != 0 {
		t.Errorf("%s: error rate %v", w.name, v("client.error_rate"))
	}
	var shares float64
	for _, l := range []string{"flix", "query", "server", "shard", "storage"} {
		shares += v("share." + l)
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("%s: layer shares sum to %v", w.name, shares)
	}
	switch w.name {
	case "desc-cold":
		if v("flix.cache_hit_ratio") != 0 {
			t.Errorf("desc-cold: cache hit ratio %v with the cache off", v("flix.cache_hit_ratio"))
		}
	case "mixed-warm":
		if v("flix.cache_hit_ratio") < 0.9 {
			t.Errorf("mixed-warm: cache hit ratio %v", v("flix.cache_hit_ratio"))
		}
		if v("query.topk_inproc_us") <= 0 || v("client.batch_p50_ms") <= 0 {
			t.Errorf("mixed-warm: ranked and batch classes unmeasured")
		}
	case "sharded":
		if v("shard.rounds_per_gather") <= 1 || v("shard.rpcs_per_op") <= 0 || v("shard.partial_results_total") != 0 {
			t.Errorf("sharded: rounds %v rpcs/op %v partials %v", v("shard.rounds_per_gather"), v("shard.rpcs_per_op"), v("shard.partial_results_total"))
		}
	case "reopen-mapped":
		if v("flix.open_ms") <= 0 || v("server.install_ms") <= 0 || v("storage.bytes_ppo-c") <= 0 || v("share.storage") <= 0 {
			t.Errorf("reopen-mapped: open %v install %v ppo-c bytes %v storage share %v",
				v("flix.open_ms"), v("server.install_ms"), v("storage.bytes_ppo-c"), v("share.storage"))
		}
	}
}

func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) }) //nolint:errcheck // best effort
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var spec benchmarkJSON
			if err := json.Unmarshal(b, &spec); err != nil {
				t.Fatal(err)
			}
			return spec
		}
		if dir == filepath.Dir(dir) {
			t.Skip("no BENCHMARK.json above ", wd)
		}
	}
}

// TestBenchmarkJSONAgreesWithCode keeps the contract file and the code's
// own tables of workloads and per-layer metrics in step.
func TestBenchmarkJSONAgreesWithCode(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if g := spec.PerLayer[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != nil {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, g, m)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}
