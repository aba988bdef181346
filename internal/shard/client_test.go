package shard_test

// The shard client's transport, row by row: each test pins one rule of
// Client.exchange against an httptest shard that misbehaves in one way.

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flix"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/testutil"
)

// frame is a well-formed eval answer: two results, no hops.
func frame(t *testing.T) []byte {
	t.Helper()
	b, err := (&shard.EvalResponse{Generation: 1, Fingerprint: "0123456789abcdef",
		Results: []flix.FrontierEntry{{Node: 3, Dist: 1}, {Node: 4, Dist: 2}}}).AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testShard is an httptest shard whose handler the test supplies; asked
// counts the requests it received and open the connections it holds.
type testShard struct {
	*httptest.Server
	asked, open atomic.Int64
}

func newTestShard(t *testing.T, h http.HandlerFunc) *testShard {
	t.Helper()
	s := &testShard{}
	s.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.asked.Add(1)
		h(w, r)
	}))
	s.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			s.open.Add(1)
		case http.StateClosed, http.StateHijacked:
			s.open.Add(-1)
		}
	}
	s.Start()
	t.Cleanup(s.Close)
	return s
}

// waitOpen waits up to 2 s for the shard to hold want connections.
func (s *testShard) waitOpen(t *testing.T, want int64) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); s.open.Load() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the shard holds %d connections, want %d", s.open.Load(), want)
		}
	}
}

// stall reads the request and answers nothing until the client goes away,
// or after 3 s.  The server notices the client going away only once the
// body is read.
func stall(_ http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body) //nolint:errcheck
	select {
	case <-r.Context().Done():
	case <-time.After(3 * time.Second):
	}
}

func eval(cl *shard.Client, ctx context.Context, reqID string) (*shard.EvalResponse, error) {
	return cl.Eval(ctx, 0, reqID, &shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 1}}, Tag: "a"})
}

// TestClientStaleIdleConn: the shard drops its keep-alive connections
// between two evals.  The second eval still succeeds with one attempt: a
// request that fails on a reused connection before any answer byte is sent
// again on a fresh one, and the shard sees it once.  A fresh connection
// that fails the same way is not re-sent.
func TestClientStaleIdleConn(t *testing.T) {
	body := frame(t)
	var hangUp atomic.Bool
	s := newTestShard(t, func(w http.ResponseWriter, r *http.Request) {
		if hangUp.Load() {
			c, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				c.Close()
			}
			return
		}
		w.Write(body) //nolint:errcheck
	})
	cl := shard.NewClient([]string{s.URL}, shard.ClientOptions{Retries: -1})
	for i := 0; i < 2; i++ {
		if _, err := eval(cl, context.Background(), ""); err != nil {
			t.Fatalf("eval %d: %v", i, err)
		}
		if i == 0 {
			s.CloseClientConnections()
			s.waitOpen(t, 0)
		}
	}
	if got := s.asked.Load(); got != 2 {
		t.Errorf("the shard was asked %d times for two evals, want 2", got)
	}

	s.CloseClientConnections()
	s.waitOpen(t, 0)
	cl = shard.NewClient([]string{s.URL}, shard.ClientOptions{Retries: -1})
	hangUp.Store(true)
	s.asked.Store(0)
	if _, err := eval(cl, context.Background(), ""); err == nil {
		t.Fatal("a shard hanging up unanswered gave no error")
	}
	if got := s.asked.Load(); got != 1 {
		t.Errorf("a fresh connection hung up on was sent %d times, want 1", got)
	}
}

// TestClientCancelMidRPC: cancelling the ctx of an RPC to a stalled shard
// returns ctx.Err() within 100 ms, and the connection is closed, not pooled.
func TestClientCancelMidRPC(t *testing.T) {
	s := newTestShard(t, stall)
	cl := shard.NewClient([]string{s.URL}, shard.ClientOptions{Retries: -1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := make(chan time.Time, 1)
	go func() {
		for s.asked.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancelled <- time.Now()
		cancel()
	}()
	_, err := eval(cl, ctx, "")
	if err != context.Canceled {
		t.Fatalf("eval under a cancelled ctx: %v, want context.Canceled itself", err)
	}
	if d := time.Since(<-cancelled); d > 100*time.Millisecond {
		t.Errorf("eval returned %v after the cancel, want within 100ms", d)
	}
	if n := cl.IdleConns(0); n != 0 {
		t.Errorf("%d idle connections after a cancelled RPC, want 0", n)
	}
	s.waitOpen(t, 0)
}

// TestClientAttemptTimeout: Timeout bounds each attempt against a stalled
// shard, and the attempt that times out is retried.
func TestClientAttemptTimeout(t *testing.T) {
	s := newTestShard(t, stall)
	cl := shard.NewClient([]string{s.URL}, shard.ClientOptions{Timeout: 50 * time.Millisecond, Retries: 1, Backoff: time.Millisecond})
	t0 := time.Now()
	_, err := eval(cl, context.Background(), "")
	if err == nil {
		t.Fatal("a stalled shard gave no error")
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("two 50ms attempts took %v", d)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("an attempt timeout surfaced as the ctx's error: %v", err)
	}
	if got := s.asked.Load(); got != 2 {
		t.Errorf("the shard was asked %d times, want 2 (a timed-out attempt is retried)", got)
	}
}

// TestClientStatusHandling: 400 fails after one attempt; 429 and 5xx are
// retried until the retries run out.
func TestClientStatusHandling(t *testing.T) {
	var status atomic.Int64
	s := newTestShard(t, func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "injected", int(status.Load()))
	})
	cl := shard.NewClient([]string{s.URL}, shard.ClientOptions{Retries: 2, Backoff: time.Millisecond})
	for _, c := range []struct{ status, attempts int }{
		{http.StatusBadRequest, 1},
		{http.StatusTooManyRequests, 3},
		{http.StatusInternalServerError, 3},
		{http.StatusServiceUnavailable, 3},
	} {
		status.Store(int64(c.status))
		s.asked.Store(0)
		_, err := eval(cl, context.Background(), "")
		if err == nil || !strings.Contains(err.Error(), "injected") {
			t.Errorf("status %d: error %v, want one carrying the body", c.status, err)
		}
		if got := s.asked.Load(); got != int64(c.attempts) {
			t.Errorf("status %d: %d attempts, want %d", c.status, got, c.attempts)
		}
	}
}

// TestClientResponseFraming: a Connection: close answer is read and its
// connection dropped; a chunked answer, frame or error body, is read in
// full and its connection pooled.
func TestClientResponseFraming(t *testing.T) {
	body := frame(t)
	var mode atomic.Value
	s := newTestShard(t, func(w http.ResponseWriter, _ *http.Request) {
		switch mode.Load() {
		case "close":
			w.Header().Set("Connection", "close")
			w.Write(body) //nolint:errcheck
		case "chunked":
			w.Write(body[:3]) //nolint:errcheck
			w.(http.Flusher).Flush()
			w.Write(body[3:]) //nolint:errcheck
		case "chunked error":
			w.WriteHeader(http.StatusBadRequest)
			w.Write([]byte("first half, ")) //nolint:errcheck
			w.(http.Flusher).Flush()
			w.Write([]byte("second half")) //nolint:errcheck
		}
	})
	cl := shard.NewClient([]string{s.URL}, shard.ClientOptions{Retries: -1})

	mode.Store("close")
	if resp, err := eval(cl, context.Background(), ""); err != nil || len(resp.Results) != 2 {
		t.Fatalf("Connection: close answer: %v", err)
	}
	if n := cl.IdleConns(0); n != 0 {
		t.Errorf("%d idle connections after a Connection: close answer, want 0", n)
	}
	s.waitOpen(t, 0)

	mode.Store("chunked")
	if resp, err := eval(cl, context.Background(), ""); err != nil || len(resp.Results) != 2 {
		t.Fatalf("chunked frame: %v", err)
	}
	mode.Store("chunked error")
	_, err := eval(cl, context.Background(), "")
	if err == nil || !strings.Contains(err.Error(), "status 400: first half, second half") {
		t.Fatalf("chunked error body: %v", err)
	}
	if n := cl.IdleConns(0); n != 1 {
		t.Errorf("%d idle connections after two chunked answers, want 1", n)
	}
}

// TestClientRequestID: a valid request ID travels as the header; one that
// front.SanitizeRequestID rejects never reaches the wire.
func TestClientRequestID(t *testing.T) {
	body := frame(t)
	var got atomic.Pointer[http.Header]
	s := newTestShard(t, func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Clone()
		got.Store(&h)
		w.Write(body) //nolint:errcheck
	})
	cl := shard.NewClient([]string{s.URL}, shard.ClientOptions{Retries: -1})
	for _, c := range []struct{ id, want string }{
		{"req-7.a_b", "req-7.a_b"},
		{"bad\r\nX-Injected: 1", ""},
		{"has space", ""},
		{strings.Repeat("x", 65), ""},
	} {
		if _, err := eval(cl, context.Background(), c.id); err != nil {
			t.Fatalf("id %q: %v", c.id, err)
		}
		h := *got.Load()
		if id := h.Get(shard.RequestIDHeader); id != c.want {
			t.Errorf("id %q: the shard saw %q, want %q", c.id, id, c.want)
		}
		if h.Get("X-Injected") != "" {
			t.Errorf("id %q: a header was injected", c.id)
		}
	}
}

// TestClientURLs: a shard URL must be http://host[:port][/prefix].  The
// router refuses any other and names it; a path prefix is kept in the
// request target of both RPCs.
func TestClientURLs(t *testing.T) {
	coll := testutil.Generate(testutil.Trees, 1, 4, 10, 0)
	for _, u := range []string{"h1:8080", "https://h1", "http://", "http://h1/?x=1", "http://u@h1", "http://h1/#f", "ftp://h1", ""} {
		_, err := shard.NewRouter(coll, shard.RouterConfig{Shards: []string{"http://127.0.0.1:1", u}})
		if err == nil || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "\""+u+"\"") {
			t.Errorf("shard URL %q: NewRouter error %v, want one naming shard 1 and the URL", u, err)
		}
	}
	for _, u := range []string{"http://h1", "http://h1:8080", "http://10.0.0.1:8080/flix/", "http://[::1]:8080"} {
		if err := shard.CheckURL(u); err != nil {
			t.Errorf("shard URL %q refused: %v", u, err)
		}
	}

	ix := buildIndex(t, coll)
	h := server.New(ix, server.Config{Shard: &server.ShardConfig{ID: 0, Count: 1}, CacheSize: -1}).Handler()
	var paths atomic.Pointer[[]string]
	paths.Store(&[]string{})
	s := newTestShard(t, func(w http.ResponseWriter, r *http.Request) {
		p := append(*paths.Load(), r.URL.Path)
		paths.Store(&p)
		r.URL.Path = strings.TrimPrefix(r.URL.Path, "/pre")
		h.ServeHTTP(w, r)
	})
	cl := shard.NewClient([]string{s.URL + "/pre/"}, shard.ClientOptions{Retries: -1})
	if _, err := cl.Health(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := eval(cl, context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(*paths.Load(), " "); got != "/pre/healthz /pre/v1/shard/eval" {
		t.Errorf("request targets %q, want the prefix kept", got)
	}
}

// TestClientClosesIdleAtShutdown: when the router's Start context ends,
// the shard client's idle connections are closed.
func TestClientClosesIdleAtShutdown(t *testing.T) {
	coll := testutil.Generate(testutil.Trees, 1, 8, 30, 0)
	h := server.New(buildIndex(t, coll), server.Config{Shard: &server.ShardConfig{ID: 0, Count: 1}, CacheSize: -1}).Handler()
	s := newTestShard(t, h.ServeHTTP)
	rt, err := shard.NewRouter(coll, shard.RouterConfig{Shards: []string{s.URL}, ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.Start(ctx)
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := rt.WaitReady(wctx); err != nil {
		t.Fatal(err)
	}
	rt.Gather(ctx, 0, "", 0)
	if s.open.Load() == 0 {
		t.Fatal("the router holds no connection to the shard")
	}
	cancel()
	s.waitOpen(t, 0)
}
