package server

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
)

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

// TestTraceParam checks ?trace=1 returns the EXPLAIN summary alongside the
// results on both traced endpoints.
func TestTraceParam(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1})
	got := getJSON(t, ts.URL+"/v1/descendants?start=movies.xml&tag=actor&trace=1", 200)
	if got["count"].(float64) != 2 {
		t.Fatalf("count = %v, want 2", got["count"])
	}
	tr, ok := got["trace"].(map[string]any)
	if !ok {
		t.Fatalf("no trace in response: %v", got)
	}
	if tr["pops"].(float64) < 1 {
		t.Errorf("trace pops = %v, want >= 1", tr["pops"])
	}
	metas, ok := tr["metas"].([]any)
	if !ok || len(metas) == 0 {
		t.Fatalf("trace without meta visits: %v", tr)
	}
	first := metas[0].(map[string]any)
	if first["strategy"] == "" {
		t.Errorf("meta visit without strategy: %v", first)
	}
	if _, ok := tr["events"].([]any); !ok {
		t.Error("trace without raw events")
	}

	// Untraced responses must not carry the key.
	got = getJSON(t, ts.URL+"/v1/descendants?start=movies.xml&tag=actor", 200)
	if _, ok := got["trace"]; ok {
		t.Error("trace present without ?trace=1")
	}

	u := ts.URL + "/v1/query?" + url.Values{"q": {"//movie//actor"}, "trace": {"1"}}.Encode()
	got = getJSON(t, u, 200)
	tr, ok = got["trace"].(map[string]any)
	if !ok {
		t.Fatalf("no trace in /v1/query response: %v", got)
	}
	if tr["pops"].(float64) < 1 {
		t.Errorf("/v1/query trace pops = %v, want >= 1", tr["pops"])
	}
}

// TestSlowQueryLog drives a request past a 1ns threshold and checks the
// sampled slow-query log line carries the ID, endpoint, and trace.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	s, ts := newTestServer(t, Config{
		Logger:             log.New(&buf, "", 0),
		SlowQueryThreshold: time.Nanosecond,
		CacheSize:          -1,
	})
	resp, err := http.Get(ts.URL + "/v1/descendants?start=movies.xml&tag=actor")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	id := resp.Header.Get("X-Flix-Request-Id")
	resp.Body.Close()

	deadline := time.Now().Add(2 * time.Second)
	for s.slowQueries.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.slowQueries.Load() < 1 {
		t.Fatal("slow query not counted")
	}
	logged := buf.String()
	for _, want := range []string{"slow-query id=" + id, "endpoint=descendants", "trace={", `"pops":`} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow-query log missing %q:\n%s", want, logged)
		}
	}
	stats := getJSON(t, ts.URL+"/statsz", 200)
	if got := stats["server"].(map[string]any)["slowQueries"].(float64); got < 1 {
		t.Errorf("statsz slowQueries = %v, want >= 1", got)
	}
}

// TestStatszLatencyAndBuild checks /statsz reports the latency percentiles
// and the build-phase timings.
func TestStatszLatencyAndBuild(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	getJSON(t, ts.URL+"/v1/descendants?start=movies.xml&tag=actor", 200)
	deadline := time.Now().Add(2 * time.Second)
	for {
		stats := getJSON(t, ts.URL+"/statsz", 200)
		lat := stats["latency"].(map[string]any)
		eps := lat["endpoints"].(map[string]any)
		if d, ok := eps["descendants"].(map[string]any); ok {
			if d["count"].(float64) < 1 || d["p50"].(string) == "" || d["p99"].(string) == "" {
				t.Errorf("bad latency summary %v", d)
			}
			build := stats["build"].(map[string]any)
			if build["indexBuild"].(string) == "" {
				t.Errorf("bad build section %v", build)
			}
			if len(build["strategies"].(map[string]any)) == 0 {
				t.Errorf("build section without strategies: %v", build)
			}
			qs := stats["queryStats"].(map[string]any)
			if _, ok := qs["pops"]; !ok {
				t.Error("queryStats missing pops")
			}
			for _, key := range []string{"dupDropRatio", "staleDropped"} {
				if _, ok := qs[key]; !ok {
					t.Errorf("queryStats missing %s", key)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("latency endpoint summary never appeared")
		}
		time.Sleep(time.Millisecond)
	}
}
