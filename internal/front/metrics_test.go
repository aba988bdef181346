package front_test

// /metrics parity: both tiers write the families the front owns through one
// exposition writer, under their own name prefix.

import (
	"bufio"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// exposition is a parsed /metrics payload of one tier.
type exposition struct {
	prefix  string             // "flix_" or "flix_router_"
	types   map[string]string  // family -> counter|gauge|histogram
	samples map[string]float64 // series (name{labels}) -> value
}

func scrape(t *testing.T, tr tier) *exposition {
	t.Helper()
	_, body := tr.do(t, call{path: "/metrics"})
	e := &exposition{prefix: "flix_", types: map[string]string{}, samples: map[string]float64{}}
	if tr.name == "router" {
		e.prefix = "flix_router_"
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if _, dup := e.types[name]; dup {
				t.Errorf("%s: duplicate TYPE for %s", tr.name, name)
			}
			e.types[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("%s: malformed sample line %q", tr.name, line)
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Errorf("%s: bad value in %q", tr.name, line)
		}
		e.samples[m[1]+m[2]] = v
	}
	return e
}

// value returns an unlabelled sample of the tier's own prefix.
func (e *exposition) value(name string) float64 { return e.samples[e.prefix+name] }

// families returns the tier's family names with the tier prefix removed;
// go_* families keep their names.
func (e *exposition) families() map[string]string {
	out := map[string]string{}
	for name, kind := range e.types {
		out[strings.TrimPrefix(name, e.prefix)] = kind
	}
	return out
}

// endpoints returns the endpoint label values of one per-endpoint series.
func (e *exposition) endpoints(series string) []string {
	var out []string
	for s := range e.samples {
		if rest, ok := strings.CutPrefix(s, e.prefix+series+`{endpoint="`); ok {
			out = append(out, rest[:strings.IndexByte(rest, '"')])
		}
	}
	sort.Strings(out)
	return out
}

func TestMetricsParity(t *testing.T) {
	c := newCorpus(t, hybridIndex)
	tiers := bothTiers(t, c, limits{})
	for _, tr := range tiers {
		for _, cl := range goldenCalls(c)[:3] {
			tr.do(t, cl)
		}
	}
	node, router := scrape(t, tiers[0]), scrape(t, tiers[1])

	// The families both tiers carry are exactly the front's, with one type.
	nf, rf := node.families(), router.families()
	var shared []string
	for name, kind := range nf {
		if rk, ok := rf[name]; ok {
			if rk != kind {
				t.Errorf("%s is a %s on the node and a %s on the router", name, kind, rk)
			}
			if !strings.HasPrefix(name, "go_") {
				shared = append(shared, name)
			}
		}
	}
	sort.Strings(shared)
	want := []string{
		"client_errors_total", "inflight_requests", "ready", "request_duration_seconds", "request_timeouts_total",
		"requests_not_ready_total", "requests_shed_total", "requests_total",
	}
	if strings.Join(shared, " ") != strings.Join(want, " ") {
		t.Errorf("families common to both tiers:\n got %v\nwant %v", shared, want)
	}
	for name := range nf {
		if _, ok := rf[name]; strings.HasPrefix(name, "go_") && !ok {
			t.Errorf("runtime family %s on the node only", name)
		}
	}

	// Every admitted endpoint is in both per-endpoint families, on both
	// tiers; a node in shard mode admits the shard RPC too.
	shardNode := scrape(t, tier{name: "node", url: shardNodeURL(t, c)})
	for _, tc := range []struct {
		e    *exposition
		want string
	}{
		{node, "batch connected descendants query"},
		{router, "batch connected descendants query"},
		{shardNode, "batch connected descendants query shard_eval"},
	} {
		if got := strings.Join(tc.e.endpoints("requests_total"), " "); got != tc.want {
			t.Errorf("%srequests_total endpoints %q, want %q", tc.e.prefix, got, tc.want)
		}
		if got := strings.Join(tc.e.endpoints("request_duration_seconds_count"), " "); got != tc.want {
			t.Errorf("%srequest_duration_seconds endpoints %q, want %q", tc.e.prefix, got, tc.want)
		}
	}
	for _, e := range []*exposition{node, router} {
		if got := e.samples[e.prefix+`requests_total{endpoint="descendants"}`]; got != 3 {
			t.Errorf("%srequests_total{descendants} = %v, want 3", e.prefix, got)
		}
		if e.value("ready") != 1 {
			t.Errorf("%sready = %v, want 1", e.prefix, e.value("ready"))
		}
	}
}
