package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shard"
)

// TestRetriesFlag: -retries 0 makes one attempt per shard RPC, and -retries
// 2 three, against a shard that answers every request 503 (retryable).
func TestRetriesFlag(t *testing.T) {
	var asked atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		asked.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	for _, c := range []struct{ flag, attempts int }{{0, 1}, {2, 3}} {
		asked.Store(0)
		cl := shard.NewClient([]string{srv.URL}, shard.ClientOptions{Retries: clientRetries(c.flag), Backoff: time.Millisecond})
		if _, err := cl.Eval(context.Background(), 0, "", &shard.EvalRequest{}); err == nil {
			t.Fatalf("-retries %d: a shard answering 503 gave no error", c.flag)
		}
		if got := asked.Load(); got != int64(c.attempts) {
			t.Errorf("-retries %d: the shard was asked %d times, want %d", c.flag, got, c.attempts)
		}
	}
}

// TestShardURLs: every -shards entry must be http://host[:port][/prefix];
// the first that is not stops the router before it loads anything, with an
// error naming the entry.
func TestShardURLs(t *testing.T) {
	got, err := shardURLs(" http://h1:8080/ ,http://h2/flix/")
	if err != nil || strings.Join(got, " ") != "http://h1:8080 http://h2/flix" {
		t.Fatalf("valid list: %q, %v", got, err)
	}
	for _, c := range []struct{ list, names string }{
		{"h1:8080", `-shards entry 0: "h1:8080"`},
		{"http://h1:8080,h2:8080", `-shards entry 1: "h2:8080"`},
		{"http://h1:8080,,http://h2", "-shards entry 1 is empty"},
		{"https://h1", `-shards entry 0: "https://h1"`},
	} {
		if _, err := shardURLs(c.list); err == nil || !strings.Contains(err.Error(), c.names) {
			t.Errorf("-shards %q: error %v, want one naming %s", c.list, err, c.names)
		}
	}
}
