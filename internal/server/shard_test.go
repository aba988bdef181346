package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

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
