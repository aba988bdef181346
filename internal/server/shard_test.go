package server

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	resp, body := postEvalBody(t, url, req.AppendFrame(nil))
	var out shard.EvalResponse
	if resp.StatusCode == http.StatusOK {
		if err := out.DecodeFrame(body); err != nil {
			t.Fatalf("bad eval response: %v", err)
		}
	}
	return resp, out
}

// postEvalBody posts raw bytes to /v1/shard/eval and returns the answer's
// body.
func postEvalBody(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/shard/eval", shard.FrameContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

// TestShardEvalRejectsOutOfRangeNodes checks that wire entries naming nodes
// outside the collection, or distances beyond its element count, are
// answered 400 instead of indexing past the node→meta table or sizing the
// frontier's buckets, and that the shard keeps serving afterwards.
func TestShardEvalRejectsOutOfRangeNodes(t *testing.T) {
	s, ts := newTestServer(t, Config{Shard: &ShardConfig{ID: 0, Count: 1}, CacheSize: -1})
	for _, bad := range []xmlgraph.NodeID{-1, xmlgraph.NodeID(s.coll.NumNodes()), 1 << 30} {
		req := shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}, {Node: bad}}}
		if resp, _ := postEval(t, ts.URL, req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("node %d: status %d, want 400", bad, resp.StatusCode)
		}
	}
	// A distance no path in the collection can have would size the
	// evaluator's per-distance buckets: the same 400.
	for _, bad := range []int32{int32(s.coll.NumNodes()) + 1, 1 << 30} {
		req := shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}, {Node: 1, Dist: bad}}}
		if resp, _ := postEval(t, ts.URL, req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("distance %d: status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, out := postEval(t, ts.URL, shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}}})
	if resp.StatusCode != http.StatusOK || len(out.Results) == 0 {
		t.Fatalf("valid batch after rejected ones: status %d, %d results", resp.StatusCode, len(out.Results))
	}
}

// TestShardEvalMalformedFrame checks that a body the frame decoder rejects
// is the caller's error — 400 with a JSON error body, counted as a client
// error — and that a JSON body, the protocol this endpoint used to speak,
// is told so.  A limit on the frame bounds the answer and nothing else.
func TestShardEvalMalformedFrame(t *testing.T) {
	s, ts := newTestServer(t, Config{Shard: &ShardConfig{ID: 0, Count: 1}, CacheSize: -1})
	good := (&shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}}}).AppendFrame(nil)
	for name, tc := range map[string]struct {
		body []byte
		want string
	}{
		"json":      {[]byte(`{"entries":[{"node":0,"dist":0}],"tag":"author"}`), "body is JSON"},
		"empty":     {nil, "truncated header"},
		"version":   {append([]byte{9}, good[1:]...), "unknown version 9"},
		"truncated": {good[:len(good)-1], "count 1 exceeds"},
		"trailing":  {append(good[:len(good):len(good)], 0), "1 trailing bytes"},
	} {
		before := s.front.ClientErrors.Load()
		resp, body := postEvalBody(t, ts.URL, tc.body)
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("%s: error body is not JSON: %s", name, body)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: status %d, error %q, want 400 naming %q", name, resp.StatusCode, e.Error, tc.want)
		}
		if got := s.front.ClientErrors.Load() - before; got != 1 {
			t.Errorf("%s: %d client errors counted, want 1", name, got)
		}
	}

	_, all := postEval(t, ts.URL, shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}}})
	_, top := postEval(t, ts.URL, shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}}, K: 2})
	if len(all.Results) <= 2 || fmt.Sprint(top.Results) != fmt.Sprint(all.Results[:2]) {
		t.Errorf("k=2 answered %v, want the first two of %v", top.Results, all.Results)
	}
}

// zeros is an endless stream of bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestShardEvalAdmission checks the shard RPC goes through the front's
// gate like the public endpoints: a body past the limit is refused as too
// large (not cut off into a malformed frame), a GET is answered 405 with
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

	resp, err = http.Post(ts.URL+"/v1/shard/eval", shard.FrameContentType, io.LimitReader(zeros{}, maxEvalBody+1))
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
		resp, err := http.Post(ts.URL+"/v1/shard/eval", shard.FrameContentType, pr)
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	frame := (&shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}}}).AppendFrame(nil)
	if _, err := pw.Write(frame[:len(frame)-1]); err != nil {
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
	pw.Write(frame[len(frame)-1:]) //nolint:errcheck
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
