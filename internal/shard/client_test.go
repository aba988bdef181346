package shard_test

// The shard client's transport, row by row: each test pins one rule of
// Client.exchange against an httptest shard that misbehaves in one way,
// most of them on eval streams the test scripts record by record.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flix"
	"repro/internal/front"
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

// testShard is an httptest shard whose handler the test supplies; open
// counts the connections it holds, an upgraded one until it is closed, and
// asked what streamShard counts: the eval records it received.
type testShard struct {
	*httptest.Server
	asked, open atomic.Int64

	mu      sync.Mutex
	streams map[*countedConn]bool
}

func newTestShard(t *testing.T, h http.HandlerFunc) *testShard {
	t.Helper()
	s := &testShard{streams: make(map[*countedConn]bool)}
	s.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h(hijackCounter{w, s}, r)
	}))
	s.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			s.open.Add(1)
		case http.StateClosed:
			s.open.Add(-1)
		}
	}
	s.Start()
	t.Cleanup(s.Close)
	t.Cleanup(s.closeAll)
	return s
}

// hijackCounter hands out hijacked connections that the shard keeps
// counting as open until they are closed.
type hijackCounter struct {
	http.ResponseWriter
	s *testShard
}

func (h hijackCounter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	nc, brw, err := http.NewResponseController(h.ResponseWriter).Hijack()
	if err != nil {
		return nil, nil, err
	}
	cc := &countedConn{Conn: nc, s: h.s}
	h.s.mu.Lock()
	h.s.streams[cc] = true
	h.s.mu.Unlock()
	return cc, brw, nil
}

func (h hijackCounter) Flush() { http.NewResponseController(h.ResponseWriter).Flush() } //nolint:errcheck

// countedConn is a hijacked connection of a testShard.
type countedConn struct {
	net.Conn
	s    *testShard
	once sync.Once
}

func (c *countedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() {
		c.s.mu.Lock()
		delete(c.s.streams, c)
		c.s.mu.Unlock()
		c.s.open.Add(-1)
	})
	return err
}

// closeAll closes every connection the shard holds, streams included.
func (s *testShard) closeAll() {
	s.CloseClientConnections()
	s.mu.Lock()
	streams := make([]*countedConn, 0, len(s.streams))
	for c := range s.streams {
		streams = append(streams, c)
	}
	s.mu.Unlock()
	for _, c := range streams {
		c.Close()
	}
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

// streamShard is a scripted shard: it upgrades every request to an eval
// stream and hands each request record to answer, which writes the answer
// on nc itself — or does not.
func streamShard(t *testing.T, answer func(nc net.Conn, reqID, frame []byte)) *testShard {
	t.Helper()
	var s *testShard
	s = newTestShard(t, func(w http.ResponseWriter, r *http.Request) {
		if !strings.EqualFold(r.Header.Get("Upgrade"), shard.EvalProtocol) {
			http.Error(w, "upgrade required", http.StatusUpgradeRequired)
			return
		}
		nc, brw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+shard.EvalProtocol+"\r\n\r\n"); err != nil {
			return
		}
		records := shard.NewRecordReader(brw.Reader)
		for {
			reqID, frame, err := records.Request()
			if err != nil {
				return
			}
			s.asked.Add(1)
			answer(nc, reqID, frame)
		}
	})
	return s
}

// answerWith writes one answer record.
func answerWith(nc net.Conn, status int, payload []byte) {
	nc.Write(shard.AppendAnswer(nil, status, payload)) //nolint:errcheck
}

// stall answers nothing until the client goes away, or after 3 s.
func stall(nc net.Conn, _, _ []byte) {
	nc.SetReadDeadline(time.Now().Add(3 * time.Second)) //nolint:errcheck
	io.Copy(io.Discard, nc)                             //nolint:errcheck
}

func eval(cl *shard.Client, ctx context.Context, reqID string) (*shard.EvalResponse, error) {
	return cl.Eval(ctx, 0, reqID, &shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 1}}, Tag: "a"})
}

// TestClientStaleIdleConn: the shard drops its streams between two evals.
// The second eval still succeeds with one attempt: a record that fails on
// a reused stream before any answer byte is sent again on a fresh one,
// and the shard sees it once.  A fresh stream that fails the same way is
// not re-sent.
func TestClientStaleIdleConn(t *testing.T) {
	body := frame(t)
	var hangUp atomic.Bool
	s := streamShard(t, func(nc net.Conn, _, _ []byte) {
		if hangUp.Load() {
			nc.Close()
			return
		}
		answerWith(nc, http.StatusOK, body)
	})
	cl := shard.NewClient([]string{s.URL}, shard.ClientOptions{Retries: -1})
	for i := 0; i < 2; i++ {
		if _, err := eval(cl, context.Background(), ""); err != nil {
			t.Fatalf("eval %d: %v", i, err)
		}
		if i == 0 {
			s.closeAll()
			s.waitOpen(t, 0)
		}
	}
	if got := s.asked.Load(); got != 2 {
		t.Errorf("the shard was asked %d times for two evals, want 2", got)
	}

	s.closeAll()
	s.waitOpen(t, 0)
	cl = shard.NewClient([]string{s.URL}, shard.ClientOptions{Retries: -1})
	hangUp.Store(true)
	s.asked.Store(0)
	if _, err := eval(cl, context.Background(), ""); err == nil {
		t.Fatal("a shard hanging up unanswered gave no error")
	}
	if got := s.asked.Load(); got != 1 {
		t.Errorf("a fresh stream hung up on was sent %d times, want 1", got)
	}
}

// TestClientCancelMidRPC: cancelling the ctx of an RPC to a stalled shard
// returns ctx.Err() within 100 ms, and the stream is closed, not pooled.
func TestClientCancelMidRPC(t *testing.T) {
	s := streamShard(t, stall)
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
	s := streamShard(t, stall)
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
	s := streamShard(t, func(nc net.Conn, _, _ []byte) {
		answerWith(nc, int(status.Load()), []byte("injected\n"))
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

// TestClientResponseFraming: an answer to the upgrade other than 101 is an
// ordinary HTTP answer — a Connection: close one is read and its
// connection dropped, a chunked error body is read in full and its status
// returned — and an answer record that arrives in pieces, frame or error
// text, is read in full and its stream pooled.
func TestClientResponseFraming(t *testing.T) {
	body := frame(t)
	var mode atomic.Value
	pieces := func(nc net.Conn, status int, payload []byte) {
		rec := shard.AppendAnswer(nil, status, payload)
		nc.Write(rec[:3]) //nolint:errcheck
		time.Sleep(time.Millisecond)
		nc.Write(rec[3:]) //nolint:errcheck
	}
	records := streamShard(t, func(nc net.Conn, _, _ []byte) {
		switch mode.Load() {
		case "pieces":
			pieces(nc, http.StatusOK, body)
		case "pieces error":
			pieces(nc, http.StatusBadRequest, []byte("first half, second half"))
		}
	})
	refusals := newTestShard(t, func(w http.ResponseWriter, _ *http.Request) {
		switch mode.Load() {
		case "close":
			w.Header().Set("Connection", "close")
			http.Error(w, "not upgrading", http.StatusServiceUnavailable)
		case "chunked error":
			w.WriteHeader(http.StatusBadRequest)
			w.Write([]byte("first half, ")) //nolint:errcheck
			w.(http.Flusher).Flush()
			w.Write([]byte("second half")) //nolint:errcheck
		}
	})

	cl := shard.NewClient([]string{refusals.URL}, shard.ClientOptions{Retries: -1})
	mode.Store("close")
	if _, err := eval(cl, context.Background(), ""); err == nil || !strings.Contains(err.Error(), "status 503: not upgrading") {
		t.Fatalf("Connection: close refusal: %v", err)
	}
	if n := cl.IdleConns(0); n != 0 {
		t.Errorf("%d idle connections after a Connection: close answer, want 0", n)
	}
	refusals.waitOpen(t, 0)
	mode.Store("chunked error")
	if _, err := eval(cl, context.Background(), ""); err == nil || !strings.Contains(err.Error(), "status 400: first half, second half") {
		t.Fatalf("chunked error body: %v", err)
	}
	if n := cl.IdleConns(0); n != 0 {
		t.Errorf("%d idle connections after a refused upgrade, want 0", n)
	}

	cl = shard.NewClient([]string{records.URL}, shard.ClientOptions{Retries: -1})
	mode.Store("pieces")
	if resp, err := eval(cl, context.Background(), ""); err != nil || len(resp.Results) != 2 {
		t.Fatalf("frame in pieces: %v", err)
	}
	mode.Store("pieces error")
	_, err := eval(cl, context.Background(), "")
	if err == nil || !strings.Contains(err.Error(), "status 400: first half, second half") {
		t.Fatalf("error text in pieces: %v", err)
	}
	if n := cl.IdleConns(0); n != 1 {
		t.Errorf("%d idle connections after two answers in pieces, want 1", n)
	}
}

// TestClientRequestID: a valid request ID travels in the record; one that
// front.SanitizeRequestID rejects never reaches the wire.
func TestClientRequestID(t *testing.T) {
	body := frame(t)
	var got atomic.Pointer[string]
	s := streamShard(t, func(nc net.Conn, reqID, _ []byte) {
		id := string(reqID)
		got.Store(&id)
		answerWith(nc, http.StatusOK, body)
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
		if id := *got.Load(); id != c.want {
			t.Errorf("id %q: the shard saw %q, want %q", c.id, id, c.want)
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
// the shard client's pooled streams and health connections close, and the
// shard's stream loops end with them.
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
	if streams(t, s.URL) == 0 {
		t.Fatal("the router holds no eval stream to the shard")
	}
	cancel()
	s.waitOpen(t, 0)
	if n := rt.IdleConns(0); n != 0 {
		t.Errorf("%d pooled connections after the router stopped, want 0", n)
	}
	if n := h.(*front.Front).Streams(); n != 0 {
		t.Errorf("the shard serves %d streams after the router stopped, want 0", n)
	}
}

// TestClientShardDrain: a shard's drain closes the pooled stream it
// served; the next eval finds it dead, is sent once more on a fresh
// connection, which the draining shard refuses with 503, and pools
// nothing.
func TestClientShardDrain(t *testing.T) {
	coll := testutil.Generate(testutil.Trees, 1, 8, 30, 0)
	h := server.New(buildIndex(t, coll), server.Config{Shard: &server.ShardConfig{ID: 0, Count: 1}, CacheSize: -1}).Handler()
	s := newTestShard(t, h.ServeHTTP)
	cl := shard.NewClient([]string{s.URL}, shard.ClientOptions{Retries: -1})
	if _, err := eval(cl, context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	if n := cl.IdleConns(0); n != 1 {
		t.Fatalf("%d pooled connections after one eval, want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.(*front.Front).DrainStreams(ctx); err != nil {
		t.Fatalf("DrainStreams: %v", err)
	}
	s.waitOpen(t, 0)
	_, err := eval(cl, context.Background(), "")
	if err == nil || !strings.Contains(err.Error(), "status 503") {
		t.Errorf("eval after the shard drained: %v, want the refused upgrade's 503", err)
	}
	if n := cl.IdleConns(0); n != 0 {
		t.Errorf("%d pooled connections after the drain, want 0", n)
	}
}

// streams reads the number of eval streams a shard serves from its
// /statsz.
func streams(t *testing.T, url string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/statsz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Close = true // the shard's open connections are counted
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Shard struct {
			Streams int `json:"streams"`
		} `json:"shard"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Shard.Streams
}
