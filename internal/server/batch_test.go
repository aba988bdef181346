package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/shard"
)

// postBatch posts a BatchRequest (query is the optional URL query string)
// and decodes the BatchResponse, failing on any other status than
// wantStatus.
func postBatch(t *testing.T, base, query string, req shard.BatchRequest, wantStatus int) shard.BatchResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	url := base + "/v1/batch"
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/batch: status %d, want %d (body %s)", resp.StatusCode, wantStatus, b)
	}
	var out shard.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST /v1/batch: bad JSON: %v", err)
	}
	return out
}

// TestBatchEndpoint covers the mixed batch: a cached descendants query, a
// cache miss, a ranked query, and two per-item errors that must not fail
// the batch.  Items come back in request order with per-item statuses.
func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Prime the cache so item 0 is a hit.
	getJSON(t, ts.URL+"/v1/descendants?start=movies.xml&tag=actor", 200)

	got := postBatch(t, ts.URL, "", shard.BatchRequest{Queries: []shard.BatchQuery{
		{Start: "movies.xml", Tag: "actor"},
		{Start: "actors.xml", Tag: "actor"},
		{Q: "//movie//actor"},
		{Q: "//["},
		{Start: "nope.xml", Tag: "actor"},
	}}, 200)

	if len(got.Results) != 5 {
		t.Fatalf("%d items, want 5", len(got.Results))
	}
	wantStatus := []string{"ok", "ok", "ok", "error", "error"}
	for i, want := range wantStatus {
		if got.Results[i].Status != want {
			t.Errorf("item %d status = %q, want %q (error %q)", i, got.Results[i].Status, want, got.Results[i].Error)
		}
	}
	if got.Completed != 5 || got.Partial || got.TimedOut {
		t.Errorf("completed=%d partial=%v timedOut=%v, want 5/false/false", got.Completed, got.Partial, got.TimedOut)
	}
	if !got.Results[0].CacheHit {
		t.Error("primed descendants item not flagged as a cache hit")
	}
	if got.Results[1].CacheHit {
		t.Error("first-touch descendants item flagged as a cache hit")
	}
	if got.Results[0].Count != 2 {
		t.Errorf("movies.xml//actor count = %d, want 2", got.Results[0].Count)
	}
	ranked := got.Results[2]
	if ranked.Count == 0 || ranked.Results[0].Score <= 0 {
		t.Errorf("ranked item got %+v, want scored results", ranked)
	}
	// The ranked item must agree with the single-query endpoint.
	single := getJSON(t, ts.URL+"/v1/query?q="+strings.ReplaceAll("//movie//actor", "/", "%2F"), 200)
	if float64(ranked.Count) != single["count"].(float64) {
		t.Errorf("batch ranked count %d != /v1/query count %v", ranked.Count, single["count"])
	}
	for _, bad := range []int{3, 4} {
		if got.Results[bad].Error == "" {
			t.Errorf("item %d has no error message", bad)
		}
	}
	// One batch = one admission = one request counter tick.
	stats := getJSON(t, ts.URL+"/statsz", 200)
	reqs := stats["server"].(map[string]any)["requests"].(map[string]any)
	if reqs["batch"].(float64) != 1 {
		t.Errorf("requests.batch = %v, want 1", reqs["batch"])
	}
}

// TestBatchCacheHitNeedsThePrefix: a batch item is flagged cacheHit only when
// the cache holds enough of its stream.  After a top-1 request has stored a
// one-result prefix, a top-1 item hits; a top-2 item misses, without the
// flag, and answers what a server without a cache answers.
func TestBatchCacheHitNeedsThePrefix(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, uncached := newTestServer(t, Config{CacheSize: -1})
	getJSON(t, ts.URL+"/v1/descendants?start=movies.xml&tag=actor&k=1", 200)
	req := shard.BatchRequest{Queries: []shard.BatchQuery{
		{Start: "movies.xml", Tag: "actor", K: 1},
		{Start: "movies.xml", Tag: "actor", K: 2},
	}}
	got, want := postBatch(t, ts.URL, "", req, 200), postBatch(t, uncached.URL, "", req, 200)
	if !got.Results[0].CacheHit || got.Results[1].CacheHit {
		t.Errorf("cacheHit = %v, %v; want true for the top-1 item and false for the top-2 one", got.Results[0].CacheHit, got.Results[1].CacheHit)
	}
	for i, w := range want.Results {
		if g := got.Results[i]; g.Count != i+1 || !reflect.DeepEqual(g.Results, w.Results) {
			t.Errorf("item %d: %d results %+v, want %d: %+v", i, g.Count, g.Results, i+1, w.Results)
		}
	}
}

// TestBatchKDefaults checks the three-level k resolution: item K, then the
// request default, then the server default, clamped to MaxLimit.
func TestBatchKDefaults(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxLimit: 3})
	got := postBatch(t, ts.URL, "", shard.BatchRequest{
		K: 1,
		Queries: []shard.BatchQuery{
			{Start: "movies.xml"},         // inherits request K=1
			{Start: "movies.xml", K: 2},   // own K
			{Start: "movies.xml", K: 100}, // clamped to MaxLimit=3
		},
	}, 200)
	for i, want := range []int{1, 2, 3} {
		if got.Results[i].Count != want {
			t.Errorf("item %d count = %d, want %d", i, got.Results[i].Count, want)
		}
	}
}
