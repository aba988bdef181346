package main

import (
	"context"
	"net/http"
	"net/http/httptest"
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
