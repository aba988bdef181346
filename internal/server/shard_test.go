package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flix"
	"repro/internal/shard"
	"repro/internal/xmlgraph"
)

// evalStream is one eval stream to a test shard, spoken by hand: the
// upgrade request, then one record each way per eval.
type evalStream struct {
	nc      net.Conn
	records *shard.RecordReader
}

// dialEvalStream upgrades a connection to the shard served at url.
func dialEvalStream(t *testing.T, url string) *evalStream {
	t.Helper()
	nc, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	fmt.Fprintf(nc, "GET %s HTTP/1.1\r\nHost: shard\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", shard.EvalPath, shard.EvalProtocol)
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade to an eval stream: status %d, want 101", resp.StatusCode)
	}
	return &evalStream{nc: nc, records: shard.NewRecordReader(br)}
}

// record is a request record carrying frame, whatever it holds.
func record(reqID string, frame []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(1+len(reqID)+len(frame)))
	b = append(b, byte(len(reqID)))
	return append(append(b, reqID...), frame...)
}

// send writes raw bytes and reads one answer record.
func (es *evalStream) send(t *testing.T, b []byte) (int, []byte) {
	t.Helper()
	if _, err := es.nc.Write(b); err != nil {
		t.Fatal(err)
	}
	status, payload, err := es.records.Answer()
	if err != nil {
		t.Fatalf("reading the answer record: %v", err)
	}
	return status, payload
}

// eval sends one frontier batch and decodes a 200 answer.
func (es *evalStream) eval(t *testing.T, req shard.EvalRequest) (int, shard.EvalResponse) {
	t.Helper()
	status, payload := es.send(t, shard.AppendRequest(nil, "", &req))
	var out shard.EvalResponse
	if status == http.StatusOK {
		if err := out.DecodeFrame(payload); err != nil {
			t.Fatalf("bad eval response: %v", err)
		}
	}
	return status, out
}

// closed reports whether the shard closed the stream without another
// answer.
func (es *evalStream) closed() bool {
	_, _, err := es.records.Answer()
	return err == io.EOF
}

// TestShardEvalRejectsOutOfRangeNodes checks that wire entries naming nodes
// outside the collection, or distances beyond its element count, are
// answered 400 instead of indexing past the node→meta table or sizing the
// frontier's buckets, and that the shard keeps serving afterwards.
func TestShardEvalRejectsOutOfRangeNodes(t *testing.T) {
	s, ts := newTestServer(t, Config{Shard: &ShardConfig{ID: 0, Count: 1}, CacheSize: -1})
	es := dialEvalStream(t, ts.URL)
	for _, bad := range []xmlgraph.NodeID{-1, xmlgraph.NodeID(s.coll.NumNodes()), 1 << 30} {
		req := shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}, {Node: bad}}}
		if status, _ := es.eval(t, req); status != http.StatusBadRequest {
			t.Errorf("node %d: status %d, want 400", bad, status)
		}
	}
	// A distance no path in the collection can have would size the
	// evaluator's per-distance buckets: the same 400.
	for _, bad := range []int32{int32(s.coll.NumNodes()) + 1, 1 << 30} {
		req := shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}, {Node: 1, Dist: bad}}}
		if status, _ := es.eval(t, req); status != http.StatusBadRequest {
			t.Errorf("distance %d: status %d, want 400", bad, status)
		}
	}
	status, out := es.eval(t, shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}}})
	if status != http.StatusOK || len(out.Results) == 0 {
		t.Fatalf("valid batch after rejected ones: status %d, %d results", status, len(out.Results))
	}
}

// TestShardEvalMalformedFrame checks that a frame the decoder rejects is
// the caller's error — a 400 record with the decoder's message, counted as
// a client error — on a stream that keeps serving, and that a JSON body,
// the protocol this endpoint used to speak, is told so.  A limit on the
// frame bounds the answer and nothing else.
func TestShardEvalMalformedFrame(t *testing.T) {
	s, ts := newTestServer(t, Config{Shard: &ShardConfig{ID: 0, Count: 1}, CacheSize: -1})
	es := dialEvalStream(t, ts.URL)
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
		status, msg := es.send(t, record("", tc.body))
		if status != http.StatusBadRequest || !bytes.Contains(msg, []byte(tc.want)) {
			t.Errorf("%s: status %d, error %q, want 400 naming %q", name, status, msg, tc.want)
		}
		if got := s.front.ClientErrors.Load() - before; got != 1 {
			t.Errorf("%s: %d client errors counted, want 1", name, got)
		}
	}

	_, all := es.eval(t, shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}}})
	_, top := es.eval(t, shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}}, K: 2})
	if len(all.Results) <= 2 || fmt.Sprint(top.Results) != fmt.Sprint(all.Results[:2]) {
		t.Errorf("k=2 answered %v, want the first two of %v", top.Results, all.Results)
	}
}

// TestShardEvalAdmission checks the eval records go through the front's
// admission like the public endpoints: a request to the path without the
// upgrade is answered 426, a record past the size limit is refused by name
// and ends its stream (not cut off into a malformed frame), a saturated
// shard answers a 429 record, and the endpoint shows up in the
// per-endpoint metric families.
func TestShardEvalAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Shard: &ShardConfig{ID: 0, Count: 1}, CacheSize: -1, MaxInFlight: 1})

	for _, method := range []string{http.MethodGet, http.MethodPost} {
		req, err := http.NewRequest(method, ts.URL+shard.EvalPath, bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != shard.EvalProtocol {
			t.Errorf("%s %s without the upgrade: status %d, Upgrade %q, want 426 naming %s",
				method, shard.EvalPath, resp.StatusCode, resp.Header.Get("Upgrade"), shard.EvalProtocol)
		}
	}

	es := dialEvalStream(t, ts.URL)
	status, msg := es.send(t, binary.BigEndian.AppendUint32(nil, shard.MaxRecord+1))
	if status != http.StatusBadRequest || !bytes.Contains(msg, []byte("exceed the limit")) {
		t.Errorf("oversize record: status %d, error %q, want 400 naming the size limit", status, msg)
	}
	if !es.closed() {
		t.Error("the stream stayed open after a record it could not frame")
	}

	// A stalled batch body holds the only admission slot.
	pr, pw := io.Pipe()
	done := make(chan int)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", pr)
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	if _, err := pw.Write([]byte(`{"queries":[{"start":"0","tag":"a"}`)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); s.InFlight() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stalled batch never took an admission slot")
		}
	}
	es = dialEvalStream(t, ts.URL)
	ok := shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}}}
	if status, msg := es.send(t, shard.AppendRequest(nil, "", &ok)); status != http.StatusTooManyRequests || !bytes.Contains(msg, []byte("shard at capacity")) {
		t.Errorf("eval on a saturated shard: status %d, error %q, want 429 at capacity", status, msg)
	}
	pw.Write([]byte(`]}`)) //nolint:errcheck
	pw.Close()
	if code := <-done; code != http.StatusOK {
		t.Errorf("the batch holding the slot finished with %d, want 200", code)
	}
	if status, _ := es.eval(t, ok); status != http.StatusOK {
		t.Errorf("eval on the same stream once the slot is free: status %d, want 200", status)
	}

	e := scrape(t, ts.URL)
	if got := e.samples[`flix_requests_total{endpoint="shard_eval"}`]; got != 2 {
		t.Errorf(`flix_requests_total{endpoint="shard_eval"} = %v, want 2`, got)
	}
	if got := e.samples[`flix_request_duration_seconds_count{endpoint="shard_eval"}`]; got != 1 {
		t.Errorf(`flix_request_duration_seconds_count{endpoint="shard_eval"} = %v, want 1 (the admitted eval)`, got)
	}
}

// TestShardStreamStatszMetrics: records served on streams are counted as
// requests were — /statsz shard.evals and evalLatency equal the shard_eval
// series of /metrics — and each is written to the access log under its
// record's request ID when SanitizeRequestID accepts it, a fresh one
// otherwise.  shard.streams counts the open streams.
func TestShardStreamStatszMetrics(t *testing.T) {
	var logged lockedLog
	s, ts := newTestServer(t, Config{Shard: &ShardConfig{ID: 0, Count: 1}, CacheSize: -1, Logger: log.New(&logged, "", 0)})
	es := dialEvalStream(t, ts.URL)
	req := shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}}}
	for _, id := range []string{"trace-me-7", "bad id!", ""} {
		if status, _ := es.send(t, shard.AppendRequest(nil, id, &req)); status != http.StatusOK {
			t.Fatalf("record with ID %q: status %d", id, status)
		}
	}
	if status, _ := es.send(t, record("", []byte("{}"))); status != http.StatusBadRequest {
		t.Fatalf("JSON record: status %d, want 400", status)
	}

	stats := getJSON(t, ts.URL+"/statsz", 200)["shard"].(map[string]any)
	m := scrape(t, ts.URL)
	evals, latency := m.samples[`flix_requests_total{endpoint="shard_eval"}`], m.samples[`flix_request_duration_seconds_count{endpoint="shard_eval"}`]
	if evals != 4 || stats["evals"] != evals {
		t.Errorf("/statsz shard.evals = %v, /metrics shard_eval requests = %v; want both 4", stats["evals"], evals)
	}
	if lat, _ := stats["evalLatency"].(map[string]any); lat == nil || lat["count"] != latency || latency != 4 {
		t.Errorf("/statsz shard.evalLatency = %v, /metrics shard_eval duration count = %v; want count 4 in both", stats["evalLatency"], latency)
	}
	if stats["streams"] != float64(1) {
		t.Errorf("/statsz shard.streams = %v while one stream is open, want 1", stats["streams"])
	}

	lines := logged.lines()
	line := regexp.MustCompile(`^id=(\S+) POST /v1/shard/eval (\d+) \S+$`)
	var ids, statuses []string
	for _, l := range lines {
		if m := line.FindStringSubmatch(l); m != nil {
			ids, statuses = append(ids, m[1]), append(statuses, m[2])
		}
	}
	if len(ids) != 4 || ids[0] != "trace-me-7" || ids[1] == "bad" || ids[2] == "" || strings.Join(statuses, " ") != "200 200 200 400" {
		t.Errorf("access log of four records: ids %q, statuses %q, from %q", ids, statuses, lines)
	}

	es.nc.Close()
	for deadline := time.Now().Add(5 * time.Second); s.front.Streams() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stream's loop did not end when the router closed it")
		}
	}
}

// TestShardStreamDrain: a shard's drain answers a record that arrived
// before it, closes every stream and leaves no stream loop behind; a new
// upgrade is refused.  (front's TestStreamDrainMidRecord holds a drain to
// the record whose first byte a stream has in hand.)  The access log names
// each upgrade request before the drain returns.
func TestShardStreamDrain(t *testing.T) {
	var logged lockedLog
	s, ts := newTestServer(t, Config{Shard: &ShardConfig{ID: 0, Count: 1}, CacheSize: -1, Logger: log.New(&logged, "", 0)})
	busy, idle := dialEvalStream(t, ts.URL), dialEvalStream(t, ts.URL)
	rec := shard.AppendRequest(nil, "", &shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}}})
	if status, _ := busy.send(t, rec); status != http.StatusOK {
		t.Fatalf("eval before the drain: status %d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.front.DrainStreams(ctx); err != nil {
		t.Errorf("DrainStreams: %v", err)
	}
	if n := s.front.Streams(); n != 0 {
		t.Errorf("%d streams after the drain, want 0", n)
	}
	if !busy.closed() || !idle.closed() {
		t.Error("a stream stayed open after the drain")
	}
	resp, err := http.Get(ts.URL + shard.EvalPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Errorf("a plain request after the drain: status %d, want 426", resp.StatusCode)
	}
	if n := strings.Count(logged.String(), "GET /v1/shard/eval 101"); n != 2 {
		t.Errorf("%d access-log lines for the two upgrades once the drain returned, want 2: %q", n, logged.lines())
	}
}

// lockedLog is a log destination the test reads while the server writes.
type lockedLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func (l *lockedLog) lines() []string { return strings.Split(strings.TrimSpace(l.String()), "\n") }
