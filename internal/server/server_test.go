package server

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flix"
	"repro/internal/ontology"
	"repro/internal/xmlparse"
)

// testIndex builds a small linked collection: movies.xml links into
// actors.xml, so descendants of the movies root cross a runtime link.
func testIndex(t testing.TB) *flix.Index {
	t.Helper()
	coll, err := xmlparse.Parse(map[string]string{
		"movies.xml": `<movies>
			<movie><title>The Matrix</title><cast href="actors.xml"/></movie>
			<movie><title>Speed</title><cast href="actors.xml"/></movie>
		</movies>`,
		"actors.xml": `<actors>
			<actor>Keanu Reeves</actor>
			<actor>Carrie-Anne Moss</actor>
		</actors>`,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Naive})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(testIndex(t), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// getJSON fetches a URL and decodes the JSON body.
func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, resp.StatusCode, wantStatus, body)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
	return out
}

func TestDescendantsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	got := getJSON(t, ts.URL+"/v1/descendants?start=movies.xml&tag=actor", 200)
	if got["count"].(float64) != 2 {
		t.Errorf("count = %v, want 2", got["count"])
	}
	if got["timedOut"].(bool) {
		t.Error("unexpected timedOut")
	}
	first := got["results"].([]any)[0].(map[string]any)
	if first["tag"] != "actor" || first["doc"] != "actors.xml" {
		t.Errorf("unexpected first result %v", first)
	}
	// The second identical request is a cache hit.
	getJSON(t, ts.URL+"/v1/descendants?start=movies.xml&tag=actor", 200)
	stats := getJSON(t, ts.URL+"/statsz", 200)
	cache := stats["cache"].(map[string]any)
	if cache["hits"].(float64) < 1 {
		t.Errorf("cache hits = %v, want >= 1", cache["hits"])
	}
}

func TestDescendantsLimitAndWildcard(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	got := getJSON(t, ts.URL+"/v1/descendants?start=movies.xml&k=3", 200)
	if got["count"].(float64) != 3 {
		t.Errorf("k=3 wildcard count = %v, want 3", got["count"])
	}
}

func TestDescendantsTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	got := getJSON(t, ts.URL+"/v1/descendants?start=movies.xml&tag=actor&timeout=1ns", 200)
	if !got["timedOut"].(bool) {
		t.Error("1ns deadline not reported as timed out")
	}
}

func TestConnectedEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	got := getJSON(t, ts.URL+"/v1/connected?from=movies.xml&to=actors.xml", 200)
	if !got["connected"].(bool) {
		t.Fatal("movies.xml -> actors.xml must be connected")
	}
	if got["dist"].(float64) != 3 {
		t.Errorf("dist = %v, want 3 (root/movie/cast -> link -> actors)", got["dist"])
	}
	got = getJSON(t, ts.URL+"/v1/connected?from=movies.xml&to=actors.xml&maxdist=1", 200)
	if got["connected"].(bool) {
		t.Error("maxdist=1 must not reach actors.xml")
	}
}

func TestRankedQueryEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	onto, err := ontology.Parse("movie film 0.9\n")
	if err != nil {
		t.Fatal(err)
	}
	s.SetOntology(onto)
	u := ts.URL + "/v1/query?" + url.Values{"q": {"//movie//actor"}, "k": {"10"}}.Encode()
	got := getJSON(t, u, 200)
	if got["count"].(float64) != 2 {
		t.Errorf("count = %v, want 2", got["count"])
	}
	top := got["results"].([]any)[0].(map[string]any)
	if top["score"].(float64) <= 0 || top["tag"] != "actor" {
		t.Errorf("unexpected top match %v", top)
	}
}

// TestGracefulDrain exercises the SIGTERM path's contract: Shutdown must
// wait for the in-flight query and that query must complete successfully.
// The in-flight query is a batch whose body stalls: it holds its admission
// slot until the test sends the rest.
func TestGracefulDrain(t *testing.T) {
	s := New(testIndex(t), Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown

	pr, pw := io.Pipe()
	status := make(chan int)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/batch", "application/json", pr)
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	if _, err := pw.Write([]byte(`{"queries":[{"start":"movies.xml","tag":"actor"}`)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); s.InFlight() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stalled batch never took an admission slot")
		}
	}

	shutdownDone := make(chan error)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a query was in flight", err)
	case <-time.After(50 * time.Millisecond):
		// Still draining — as it should be.
	}
	pw.Write([]byte(`]}`)) //nolint:errcheck
	pw.Close()
	if code := <-status; code != http.StatusOK {
		t.Errorf("drained request finished with status %d, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

func TestHealthzStatszMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Logger: log.New(io.Discard, "", 0)})
	if got := getJSON(t, ts.URL+"/healthz", 200); got["status"] != "ok" {
		t.Errorf("healthz = %v", got)
	}
	getJSON(t, ts.URL+"/v1/descendants?start=movies.xml&tag=actor", 200)

	stats := getJSON(t, ts.URL+"/statsz", 200)
	qs := stats["queryStats"].(map[string]any)
	if qs["queries"].(float64) < 1 {
		t.Errorf("statsz queries = %v, want >= 1", qs["queries"])
	}
	if _, ok := stats["advice"].(map[string]any)["reason"]; !ok {
		t.Error("statsz missing self-tuning advice")
	}
	reqs := stats["server"].(map[string]any)["requests"].(map[string]any)
	if reqs["descendants"].(float64) != 1 {
		t.Errorf("request counter = %v, want 1", reqs["descendants"])
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`flix_requests_total{endpoint="descendants"} 1`,
		"flix_engine_queries_total",
		"flix_engine_dup_stale_total",
		"flix_inflight_requests 0",
		"flix_cache_misses_total",
		"flix_index_meta_documents",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestConcurrentRequests drives the full HTTP path from many goroutines —
// the serving-layer counterpart of the engine-level race test.
func TestConcurrentRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 32})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Get(ts.URL + "/v1/descendants?start=movies.xml&tag=actor")
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
