package front_test

// The wire-contract suite: one table, run against a node (server.New) and
// a router over two in-process shards (shard.NewRouter) on the same corpus.
// Both serve the public API through internal/front; this suite is what
// keeps "the same API on both tiers" a tested property.  What only one
// tier reports — generation and truncated on a node; partial, failedShards
// and rounds on the router — is exactly the set of keys allowed to differ.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// tierOnly are the response keys one tier adds in its finish hook.
var tierOnly = map[string]bool{
	"generation": true, "truncated": true, // node
	"partial": true, "failedShards": true, "rounds": true, // router
}

func TestContractErrors(t *testing.T) {
	c := newCorpus(t, hybridIndex)
	tiers := bothTiers(t, c, limits{maxBatch: 3})
	hub := c.hub
	cases := []struct {
		name   string
		call   call
		status int
		errMsg string // the whole "error" value; a trailing * matches any suffix
	}{
		{"bad k", call{path: "/v1/descendants?start=" + hub + "&k=-1"}, 400, `bad k "-1" (want a positive integer)`},
		{"k not a number", call{path: "/v1/query?q=%2F%2Farticle&k=ten"}, 400, `bad k "ten" (want a positive integer)`},
		{"bad timeout", call{path: "/v1/descendants?start=" + hub + "&timeout=soon"}, 400, `bad timeout "soon" (want a positive duration like 500ms)`},
		{"negative timeout", call{path: "/v1/connected?from=" + hub + "&to=" + hub + "&timeout=-1s"}, 400, `bad timeout "-1s" (want a positive duration like 500ms)`},
		{"bad timeout on batch", call{path: "/v1/batch?timeout=x", body: `{"queries":[{"q":"//a"}]}`}, 400, `bad timeout "x" (want a positive duration like 500ms)`},
		{"bad maxdist", call{path: "/v1/descendants?start=" + hub + "&maxdist=-1"}, 400, `bad maxdist: "-1" is not a non-negative integer`},
		{"bad maxdist connected", call{path: "/v1/connected?from=" + hub + "&to=" + hub + "&maxdist=far"}, 400, `bad maxdist: "far" is not a non-negative integer`},
		{"missing q", call{path: "/v1/query"}, 400, "missing q parameter"},
		{"unparsable q", call{path: "/v1/query?q=%2F%2F%5B"}, 400, "query: *"},
		{"unknown document", call{path: "/v1/descendants?start=nosuch.xml"}, 404, `start: unknown node "nosuch.xml" *`},
		{"node id out of range", call{path: "/v1/connected?from=" + hub + "&to=123456789"}, 404, `to: unknown node "123456789" *`},
		{"missing start", call{path: "/v1/descendants?tag=title"}, 404, "start: missing node parameter"},
		{"GET batch", call{path: "/v1/batch"}, 405, "POST a JSON batch body to /v1/batch"},
		{"empty batch", call{path: "/v1/batch", body: `{"queries":[]}`}, 400, `empty batch: want {"queries": [...]}`},
		{"batch not JSON", call{path: "/v1/batch", body: `{"queries":`}, 400, "bad batch body: *"},
		// A batch item's maxDist is an int32 in the body: JSON rejects what a
		// query-string maxdist clamps (TestContractMaxDistClamped).
		{"batch maxDist past int32", call{path: "/v1/batch", body: `{"queries":[{"start":"` + hub + `","maxDist":4294967297}]}`}, 400, "bad batch body: json: cannot unmarshal number 4294967297 into *"},
		{"batch over the item limit", call{path: "/v1/batch", body: `{"queries":[{"q":"//a"},{"q":"//b"},{"q":"//c"},{"q":"//d"}]}`}, 400, "batch of 4 queries exceeds the limit of 3"},
		{"batch over the body limit", call{path: "/v1/batch", body: expand(oversize)}, 400, "bad batch body: http: request body too large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var bodies []string
			for _, tr := range tiers {
				resp, body := tr.do(t, tc.call)
				if resp.StatusCode != tc.status {
					t.Errorf("%s: status %d, want %d (body %s)", tr.name, resp.StatusCode, tc.status, body)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Errorf("%s: Content-Type %q", tr.name, ct)
				}
				if allow := resp.Header.Get("Allow"); (tc.status == 405) != (allow == http.MethodPost) {
					t.Errorf("%s: status %d with Allow %q; every 405, and only a 405, carries Allow: POST", tr.name, tc.status, allow)
				}
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal([]byte(body), &e); err != nil {
					t.Fatalf("%s: error body is not JSON: %s", tr.name, body)
				}
				if prefix, wild := strings.CutSuffix(tc.errMsg, "*"); wild && !strings.HasPrefix(e.Error, prefix) || !wild && e.Error != tc.errMsg {
					t.Errorf("%s: error %q, want %q", tr.name, e.Error, tc.errMsg)
				}
				bodies = append(bodies, body)
			}
			if bodies[0] != bodies[1] {
				t.Errorf("the tiers answer differently:\nnode   %srouter %s", bodies[0], bodies[1])
			}
		})
	}
}

func TestContractNotReady(t *testing.T) {
	c := newCorpus(t, hybridIndex)
	for _, tr := range newPendingTiers(t, c) {
		for _, cl := range pendingCalls(c) {
			resp, body := tr.do(t, cl)
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Errorf("%s %s before ready: status %d, Retry-After %q, want 503 with Retry-After (body %s)",
					tr.name, cl.path, resp.StatusCode, resp.Header.Get("Retry-After"), body)
			}
			if !strings.Contains(body, "not ready") {
				t.Errorf("%s %s before ready: body %s does not say so", tr.name, cl.path, body)
			}
		}
		if m := scrape(t, tr); m.value("requests_not_ready_total") != float64(len(pendingCalls(c))) || m.value("ready") != 0 {
			t.Errorf("%s: not_ready_total %v, ready %v after %d refused requests",
				tr.name, m.value("requests_not_ready_total"), m.value("ready"), len(pendingCalls(c)))
		}
	}
}

// holdSlot occupies one admission slot of the tier with a batch whose body
// stalls: /v1/batch is admitted before its body is read, on both tiers, so
// the slot stays taken until release sends the rest.  It returns once
// /healthz shows the slot in use.
func holdSlot(t *testing.T, tr tier) (release func() int) {
	t.Helper()
	pr, pw := io.Pipe()
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(tr.url+"/v1/batch", "application/json", pr)
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	if _, err := pw.Write([]byte(`{"queries":[{"q":"//article"}`)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var hz struct {
			InFlight int `json:"inFlight"`
		}
		_, body := tr.do(t, call{path: "/healthz"})
		if err := json.Unmarshal([]byte(body), &hz); err != nil {
			t.Fatalf("%s /healthz: %v", tr.name, err)
		}
		if hz.InFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: the stalled batch never took an admission slot", tr.name)
		}
		time.Sleep(time.Millisecond)
	}
	return func() int {
		pw.Write([]byte(`]}`)) //nolint:errcheck
		pw.Close()
		return <-status
	}
}

func TestContractShedding(t *testing.T) {
	c := newCorpus(t, hybridIndex)
	for _, tr := range bothTiers(t, c, limits{maxInFlight: 1}) {
		release := holdSlot(t, tr)
		shedCalls := []call{
			{path: "/v1/descendants?start=" + c.hub + "&tag=title"},
			{path: "/v1/batch", body: `{"queries":[{"q":"//article"}]}`},
		}
		for _, cl := range shedCalls {
			resp, body := tr.do(t, cl)
			if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
				t.Errorf("%s %s at the in-flight limit: status %d, Retry-After %q, want 429 with Retry-After",
					tr.name, cl.path, resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			if !strings.Contains(body, "at capacity, retry later") {
				t.Errorf("%s: 429 body %s", tr.name, body)
			}
		}
		if got := release(); got != http.StatusOK {
			t.Errorf("%s: the request holding the slot finished with %d, want 200", tr.name, got)
		}
		if resp, _ := tr.do(t, shedCalls[0]); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d once the slot is free, want 200", tr.name, resp.StatusCode)
		}
		m := scrape(t, tr)
		if m.value("requests_shed_total") != 2 || m.value("client_errors_total") != 0 {
			t.Errorf("%s: shed_total %v (want 2), client_errors_total %v (a 429 is not a client error)",
				tr.name, m.value("requests_shed_total"), m.value("client_errors_total"))
		}
	}
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestContractRequestID(t *testing.T) {
	c := newCorpus(t, hybridIndex)
	var logs syncBuffer
	for _, tr := range bothTiers(t, c, limits{logger: log.New(&logs, "", 0)}) {
		path := "/v1/descendants?start=" + c.hub + "&tag=title&k=1"
		seen := map[string]bool{}
		for i := 0; i < 3; i++ {
			resp, _ := tr.do(t, call{path: path})
			id := resp.Header.Get("X-Flix-Request-Id")
			if id == "" || seen[id] {
				t.Fatalf("%s: request ID %q missing or repeated", tr.name, id)
			}
			seen[id] = true
			if want := fmt.Sprintf("id=%s GET %s 200 ", id, path); !strings.Contains(logs.String(), want) {
				t.Errorf("%s: access log has no line %q:\n%s", tr.name, want, logs.String())
			}
		}
		// Every response carries an ID, admitted or not.
		for _, p := range []string{"/healthz", "/metrics", "/v1/query"} {
			if resp, _ := tr.do(t, call{path: p}); resp.Header.Get("X-Flix-Request-Id") == "" {
				t.Errorf("%s %s: response without X-Flix-Request-Id", tr.name, p)
			}
		}
		resp, _ := tr.do(t, call{path: path, header: "X-Flix-Request-Id: trace-me.42_a-b"})
		if got := resp.Header.Get("X-Flix-Request-Id"); got != "trace-me.42_a-b" {
			t.Errorf("%s: a valid caller ID was replaced by %q", tr.name, got)
		}
		for _, hostile := range []string{"bad id with junk!", "new\tline", strings.Repeat("x", 65)} {
			resp, _ := tr.do(t, call{path: path, header: "X-Flix-Request-Id: " + hostile})
			got := resp.Header.Get("X-Flix-Request-Id")
			if got == "" || got == hostile || strings.Contains(logs.String(), hostile) {
				t.Errorf("%s: hostile caller ID %q came back as %q or reached the log", tr.name, hostile, got)
			}
		}
	}
}

// decode parses a 200 JSON body into a generic map.
func decode(t *testing.T, tr tier, cl call) map[string]any {
	t.Helper()
	resp, body := tr.do(t, cl)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d (body %s)", tr.name, cl.path, resp.StatusCode, body)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("%s %s: %v", tr.name, cl.path, err)
	}
	return out
}

// commonKeys returns the sorted keys of a response minus the tier-only ones.
func commonKeys(m map[string]any) []string {
	var out []string
	for k := range m {
		if !tierOnly[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func TestContractSameAnswers(t *testing.T) {
	c := newCorpus(t, exactIndex)
	tiers := bothTiers(t, c, limits{})
	hub, leaf := c.hub, c.leaf
	calls := []call{
		{path: "/v1/descendants?start=" + hub + "&tag=title&k=7&order=exact"},
		{path: "/v1/descendants?start=" + hub + "&tag=author&maxdist=3&order=exact"},
		{path: "/v1/descendants?start=" + hub + "&k=12&order=exact"},
		{path: "/v1/descendants?start=" + hub + "&k=12&order=exact&self=1"},
		{path: "/v1/descendants?start=" + leaf + "&tag=cite"},
		{path: "/v1/descendants?start=" + hub + "&tag=title&k=3&order=exact&trace=1"},
		{path: "/v1/connected?from=" + hub + "&to=" + leaf},
		{path: "/v1/connected?from=" + leaf + "&to=" + hub},
		{path: "/v1/connected?from=" + hub + "&to=" + hub},
		{path: "/v1/connected?from=" + hub + "&to=" + leaf + "&trace=1"},
		{path: "/v1/query?q=%2F%2Finproceedings%2F%2Fauthor&k=6"},
		{path: "/v1/query?q=%2F%2Farticle%2F%2Fcite%2F%2Ftitle&k=5&trace=1"},
		{path: "/v1/batch", body: `{"k":3,"queries":[{"start":"` + leaf + `","tag":"title"},{"q":"//article//author"},{"q":"//["},{"start":"` + hub + `","tag":"title","k":1000}]}`},
	}
	for _, cl := range calls {
		node, router := decode(t, tiers[0], cl), decode(t, tiers[1], cl)
		if nk, rk := commonKeys(node), commonKeys(router); !reflect.DeepEqual(nk, rk) {
			t.Errorf("%s: common keys differ: node %v, router %v", cl.path, nk, rk)
		}
		// A trace describes each tier's own evaluation; batch items carry
		// cacheHit on a node only; a batch item without order=exact lists
		// equal distances in either order.
		for _, k := range []string{"results", "count", "timedOut", "connected", "dist", "completed"} {
			if !reflect.DeepEqual(canonical(node[k]), canonical(router[k])) {
				t.Errorf("%s: %q differs:\nnode   %v\nrouter %v", cl.path, k, node[k], router[k])
			}
		}
		trace, traced := node["trace"].(map[string]any)
		if traced != strings.Contains(cl.path, "trace=1") {
			t.Errorf("%s: trace present = %v on the node", cl.path, traced)
		}
		// The connection test runs on the evaluator core: its trace shows the
		// pops and the link hops that found the path.
		if traced && strings.HasPrefix(cl.path, "/v1/connected") {
			if events, _ := trace["events"].([]any); trace["pops"] == 0.0 || trace["linkHops"] == 0.0 || len(events) == 0 {
				t.Errorf("%s: empty trace on the node: %v", cl.path, trace)
			}
		}
	}
}

// TestContractMaxDistClamped: a maxdist past the int32 range of a distance
// is the largest bound, on both tiers — not the small or negative one a cast
// would wrap it into (4294967297 wraps to 1, 2147483648 goes negative and,
// on the router, into a shard frame).
func TestContractMaxDistClamped(t *testing.T) {
	c := newCorpus(t, exactIndex)
	for _, tr := range bothTiers(t, c, limits{}) {
		for _, path := range []string{
			"/v1/descendants?start=" + c.hub + "&tag=title&k=50&order=exact",
			"/v1/connected?from=" + c.hub + "&to=" + c.leaf,
		} {
			answer := func(maxdist string) string {
				resp, body := tr.do(t, call{path: path + "&maxdist=" + maxdist})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %s maxdist=%s: status %d (body %s)", tr.name, path, maxdist, resp.StatusCode, body)
				}
				return body
			}
			want := answer("2147483647")
			if want == answer("1") {
				t.Fatalf("%s %s: maxdist=1 answers as the largest bound does; the rows below would prove nothing", tr.name, path)
			}
			for _, past := range []string{"2147483648", "4294967297", "99999999999999999999"} {
				if got := answer(past); got != want {
					t.Errorf("%s %s: maxdist=%s differs from maxdist=2147483647\n got %s\nwant %s", tr.name, path, past, got, want)
				}
			}
		}
	}
}

// canonical prepares a decoded result list (or list of batch items) for
// comparison across tiers: cacheHit is dropped, and the results of a batch
// item are put in (dist, node) order.
func canonical(v any) any {
	list, ok := v.([]any)
	if !ok {
		return v
	}
	for _, e := range list {
		item, ok := e.(map[string]any)
		if !ok {
			continue
		}
		delete(item, "cacheHit")
		if inner, ok := item["results"].([]any); ok && item["status"] != nil {
			sort.SliceStable(inner, func(i, j int) bool {
				a, b := inner[i].(map[string]any), inner[j].(map[string]any)
				if a["dist"] != b["dist"] {
					return a["dist"].(float64) < b["dist"].(float64)
				}
				return a["node"].(float64) < b["node"].(float64)
			})
		}
	}
	return list
}

// TestContractBatchDeadline: with the deadline already gone nothing
// executes, on either tier — items that failed planning are examined and
// count as completed, every executable item is skipped, and the response is
// still a 200 saying so.  (The mid-batch prefix is pinned on a stub tier in
// front_test.go, where the clock can be held.)
func TestContractBatchDeadline(t *testing.T) {
	c := newCorpus(t, hybridIndex)
	cl := call{path: "/v1/batch?timeout=1ns", body: `{"queries":[{"q":"//["},{"start":"` + c.hub + `","tag":"title"},{"q":"//article"},{"start":"nosuch.xml"}]}`}
	for _, tr := range bothTiers(t, c, limits{}) {
		got := decode(t, tr, cl)
		var status []any
		for _, it := range got["results"].([]any) {
			status = append(status, it.(map[string]any)["status"])
		}
		if want := []any{"error", "skipped", "skipped", "error"}; !reflect.DeepEqual(status, want) {
			t.Errorf("%s: item statuses %v, want %v", tr.name, status, want)
		}
		if got["completed"] != 2.0 || got["partial"] != true || got["timedOut"] != true {
			t.Errorf("%s: completed=%v partial=%v timedOut=%v, want 2/true/true", tr.name, got["completed"], got["partial"], got["timedOut"])
		}
		if m := scrape(t, tr); m.value("request_timeouts_total") != 1 {
			t.Errorf("%s: request_timeouts_total %v, want 1", tr.name, m.value("request_timeouts_total"))
		}
	}
}
