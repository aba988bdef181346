package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/flix"
	"repro/internal/shard"
	"repro/internal/xmlgraph"
)

// postEval sends one frontier batch to a shard's /v1/shard/eval.
func postEval(t *testing.T, url string, req shard.EvalRequest) (*http.Response, shard.EvalResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/shard/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out shard.EvalResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("bad eval response: %v", err)
		}
	}
	return resp, out
}

// TestShardEvalRejectsOutOfRangeNodes checks that wire entries naming nodes
// outside the collection are answered 400 instead of indexing past the
// node→meta table, and that the shard keeps serving afterwards.
func TestShardEvalRejectsOutOfRangeNodes(t *testing.T) {
	s, ts := newTestServer(t, Config{Shard: &ShardConfig{ID: 0, Count: 1}, CacheSize: -1})
	for _, bad := range []xmlgraph.NodeID{-1, xmlgraph.NodeID(s.coll.NumNodes()), 1 << 30} {
		req := shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}, {Node: bad}}}
		if resp, _ := postEval(t, ts.URL, req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("node %d: status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, out := postEval(t, ts.URL, shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}}})
	if resp.StatusCode != http.StatusOK || len(out.Results) == 0 {
		t.Fatalf("valid batch after rejected ones: status %d, %d results", resp.StatusCode, len(out.Results))
	}
}

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestShardEvalAdmission checks the shard RPC goes through the front's
// gate like the public endpoints: a body past the limit is refused as too
// large (not cut off into a JSON syntax error), a GET is answered 405 with
// Allow, a saturated shard sheds with 429, and the endpoint shows up in the
// per-endpoint metric families.
func TestShardEvalAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Shard: &ShardConfig{ID: 0, Count: 1}, CacheSize: -1, MaxInFlight: 1})

	resp, err := http.Get(ts.URL + "/v1/shard/eval")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /v1/shard/eval: status %d, Allow %q, want 405 with Allow: POST", resp.StatusCode, resp.Header.Get("Allow"))
	}

	big := io.MultiReader(io.LimitReader(spaces{}, maxEvalBody), strings.NewReader(`{"entries":[{"node":0}]}`))
	resp, err = http.Post(ts.URL+"/v1/shard/eval", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "request body too large") {
		t.Errorf("oversize eval body: status %d, body %s, want 400 naming the size limit", resp.StatusCode, body)
	}

	// A stalled eval body holds the only admission slot.
	pr, pw := io.Pipe()
	done := make(chan int)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/shard/eval", "application/json", pr)
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	if _, err := pw.Write([]byte(`{"entries":[{"node":0}]`)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); s.InFlight() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stalled eval never took an admission slot")
		}
	}
	if resp, _ := postEval(t, ts.URL, shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}}}); resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Errorf("eval on a saturated shard: status %d, Retry-After %q, want 429 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	pw.Write([]byte(`}`)) //nolint:errcheck
	pw.Close()
	if code := <-done; code != http.StatusOK {
		t.Errorf("the eval holding the slot finished with %d, want 200", code)
	}

	e := scrape(t, ts.URL)
	if got := e.samples[`flix_requests_total{endpoint="shard_eval"}`]; got != 4 {
		t.Errorf(`flix_requests_total{endpoint="shard_eval"} = %v, want 4`, got)
	}
	if _, ok := e.samples[`flix_request_duration_seconds_count{endpoint="shard_eval"}`]; !ok {
		t.Error("flix_request_duration_seconds has no shard_eval series")
	}
}
