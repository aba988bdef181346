package front_test

// The golden replay: testdata/golden.json holds ≈30 requests per tier with
// the status, headers and body each tier answered at the commit before the
// shared front existed (recorded there with -update, see tiers_test.go).
// Replaying it makes "responses stay byte-identical" a test.  Request IDs,
// dates and anything timed (?trace=1) are not in it.

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the tiers under test")

const goldenPath = "testdata/golden.json"

// oversize stands for a batch body just past the 1 MiB limit; the golden
// file stores the marker, not the megabyte.
const oversize = "@oversize"

func expand(body string) string {
	if body == oversize {
		return `{"queries":[{"q":"` + strings.Repeat("a", 1<<20) + `"}]}`
	}
	return body
}

// exchange is one recorded request and the answer it got.
type exchange struct {
	Method string            `json:"method"`
	Path   string            `json:"path"`
	Body   string            `json:"body,omitempty"`
	Status int               `json:"status"`
	Header map[string]string `json:"header"`
	Answer string            `json:"answer"`
}

// goldenCalls is the replayed request list, in order (the node's query
// cache makes later batch items cache hits, so order is part of it).
func goldenCalls(c *corpus) []call {
	hub, leaf := c.hub, c.leaf
	return []call{
		{path: "/v1/descendants?start=" + hub + "&tag=title&k=4"},
		{path: "/v1/descendants?start=" + hub + "&tag=author&k=3&self=1"},
		{path: "/v1/descendants?start=" + hub + "&k=5"},
		{path: "/v1/descendants?start=" + hub + "&tag=cite&maxdist=1"},
		{path: "/v1/descendants?start=" + hub + "&tag=year&k=6&order=exact"},
		{path: "/v1/descendants?start=" + leaf + "&tag=cite"},
		{path: "/v1/descendants?start=3&tag=title&k=2"},
		{path: "/v1/descendants?start=nosuch.xml&tag=title"},
		{path: "/v1/descendants?tag=title"},
		{path: "/v1/descendants?start=" + hub + "&k=-1"},
		{path: "/v1/descendants?start=" + hub + "&k=many"},
		{path: "/v1/descendants?start=" + hub + "&timeout=bogus"},
		{path: "/v1/descendants?start=" + hub + "&timeout=-1s"},
		{path: "/v1/descendants?start=" + hub + "&maxdist=-2"},
		{path: "/v1/connected?from=" + hub + "&to=" + leaf},
		{path: "/v1/connected?from=" + leaf + "&to=" + hub},
		{path: "/v1/connected?from=" + hub + "&to=" + hub},
		{path: "/v1/connected?from=" + hub + "&to=" + leaf + "&maxdist=1"},
		{path: "/v1/connected?from=" + hub},
		{path: "/v1/connected?from=" + hub + "&to=99999999"},
		{path: "/v1/connected?from=" + hub + "&to=" + leaf + "&maxdist=x"},
		{path: "/v1/query?q=%2F%2Finproceedings%2F%2Fauthor&k=5"},
		{path: "/v1/query?q=%2F%2Farticle&k=3"},
		{path: "/v1/query?q=%2F%2Farticle%2F%2Fcite%2F%2Ftitle&k=4"},
		{path: "/v1/query"},
		{path: "/v1/query?q=%2F%2F%5B"},
		{path: "/v1/query?q=%2F%2Farticle&k=0"},
		{path: "/v1/batch", body: `{"k":2,"queries":[{"start":"` + hub + `","tag":"title"},{"start":"` + leaf +
			`","tag":"author","k":1,"self":true},{"q":"//inproceedings//author"},{"q":"//["},{"start":"nosuch.xml"},{"start":"` + hub + `","maxDist":-1}]}`},
		{path: "/v1/batch?timeout=1ns", body: `{"queries":[{"q":"//["},{"start":"` + hub + `","tag":"title"},{"q":"//article"}]}`},
		{path: "/v1/batch", body: `{"queries":[]}`},
		{path: "/v1/batch", body: `{"queries":12}`},
		{path: "/v1/batch", body: `{"queries":[{"q":"//a"},{"q":"//b"},{"q":"//c"},{"q":"//d"},{"q":"//e"},{"q":"//f"},{"q":"//g"}]}`},
		{path: "/v1/batch", body: oversize},
		{path: "/v1/batch"},
	}
}

// pendingCalls go to tiers that cannot serve yet.
func pendingCalls(c *corpus) []call {
	return []call{
		{path: "/v1/descendants?start=" + c.hub + "&tag=title"},
		{path: "/v1/connected?from=" + c.hub + "&to=" + c.leaf},
		{path: "/v1/query?q=%2F%2Farticle"},
		{path: "/v1/batch", body: `{"queries":[{"q":"//article"}]}`},
	}
}

// goldenLimits is the configuration the golden was recorded under.
var goldenLimits = limits{maxBatch: 6}

// volatile headers differ between two correct answers.
var volatile = map[string]bool{"Date": true, "X-Flix-Request-Id": true}

func record(t *testing.T, tr tier, calls []call) []exchange {
	t.Helper()
	out := make([]exchange, len(calls))
	for i, c := range calls {
		sent := c
		sent.body = expand(c.body)
		resp, body := tr.do(t, sent)
		hdr := map[string]string{}
		for k, v := range resp.Header {
			if !volatile[k] {
				hdr[k] = strings.Join(v, ",")
			}
		}
		out[i] = exchange{Method: c.method(), Path: c.path, Body: c.body, Status: resp.StatusCode, Header: hdr, Answer: body}
	}
	return out
}

func TestGoldenReplay(t *testing.T) {
	c := newCorpus(t, hybridIndex)
	got := map[string][]exchange{}
	for _, tr := range bothTiers(t, c, goldenLimits) {
		got[tr.name] = record(t, tr, goldenCalls(c))
	}
	for _, tr := range newPendingTiers(t, c) {
		got[tr.name+"-pending"] = record(t, tr, pendingCalls(c))
	}
	if *update {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]exchange
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	sections := make([]string, 0, len(want))
	for name := range want {
		sections = append(sections, name)
	}
	sort.Strings(sections)
	for _, name := range sections {
		if len(got[name]) != len(want[name]) {
			t.Fatalf("%s: replayed %d requests, golden has %d (regenerating the golden is not the fix: it was recorded at the parent commit)",
				name, len(got[name]), len(want[name]))
		}
		for i, w := range want[name] {
			g := got[name][i]
			id := fmt.Sprintf("%s #%d %s %s", name, i, w.Method, w.Path)
			if g.Method != w.Method || g.Path != w.Path || g.Body != w.Body {
				t.Fatalf("%s: request list drifted from the golden: now %s %s", id, g.Method, g.Path)
			}
			if g.Status != w.Status {
				t.Errorf("%s: status %d, golden %d", id, g.Status, w.Status)
			}
			// encoding/json names the Go type it could not fill, so moving
			// the batch wire types from package shard to this one shows in
			// the 400 body of a mistyped field.
			w.Answer = strings.ReplaceAll(w.Answer, "[]shard.BatchQuery", "[]front.BatchQuery")
			if g.Answer != w.Answer {
				t.Errorf("%s: body differs from the golden\n--- got\n%s--- golden\n%s", id, g.Answer, w.Answer)
			}
			// The one header change since the recording: every 405 now names
			// the allowed method.
			if g.Status == http.StatusMethodNotAllowed {
				if g.Header["Allow"] != http.MethodPost {
					t.Errorf("%s: 405 with Allow %q, want POST", id, g.Header["Allow"])
				}
				delete(g.Header, "Allow")
			}
			if fmt.Sprint(g.Header) != fmt.Sprint(w.Header) {
				t.Errorf("%s: headers %v, golden %v", id, g.Header, w.Header)
			}
		}
	}
}
