package front

import (
	"bufio"
	"context"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// An endpoint whose exchanges are too small for net/http's per-request
// path to pay — the shard's eval RPC — is served on the connection itself
// after one HTTP upgrade: the client asks with Connection: Upgrade and
// Upgrade: <protocol>, the front answers 101, takes the connection from
// net/http and hands it to the tier, which reads records and writes
// answers until the peer closes it.  net/http's Shutdown and Close do not
// reach a hijacked connection, so the front keeps the set of its streams
// and drains them itself (DrainStreams).

// Stream is one upgraded connection, served on the goroutine of the
// request that asked for the upgrade.
type Stream struct {
	nc net.Conn
	// R reads the stream; it holds whatever arrived behind the upgrade
	// request.
	R   *bufio.Reader
	ctx context.Context
	// draining is the front's flag; mu guards busy, which is set from a
	// record's first byte until the next call to Next.
	draining *atomic.Bool
	mu       sync.Mutex
	busy     bool
}

// streamSet is a front's upgraded streams.
type streamSet struct {
	mu       sync.Mutex
	open     map[*Stream]context.CancelFunc
	draining atomic.Bool
	wg       sync.WaitGroup
}

// Upgrade serves r's connection as a stream of protocol, when r asks to
// upgrade to it: it answers 101 Switching Protocols, takes the connection
// from net/http and runs serve on it, on this goroutine, then closes the
// connection.  A request that does not ask for protocol is answered 426
// Upgrade Required, naming it; once the front drains, 503.
func (f *Front) Upgrade(w http.ResponseWriter, r *http.Request, protocol string, serve func(*Stream)) {
	if !hasToken(r.Header, "Connection", "upgrade") || !hasToken(r.Header, "Upgrade", protocol) {
		w.Header().Set("Upgrade", protocol)
		w.Header().Set("Connection", "Upgrade")
		f.Fail(w, http.StatusUpgradeRequired, "this endpoint is served on a connection upgraded to "+protocol)
		return
	}
	ss := &f.streams
	if ss.draining.Load() {
		f.Fail(w, http.StatusServiceUnavailable, "draining")
		return
	}
	nc, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		f.Fail(w, http.StatusInternalServerError, "upgrade: "+err.Error())
		return
	}
	defer nc.Close()
	nc.SetDeadline(time.Time{}) //nolint:errcheck // a server timeout must not end the stream; a closed conn fails below
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	st := &Stream{nc: nc, R: brw.Reader, ctx: ctx, draining: &ss.draining}
	ss.mu.Lock()
	if ss.draining.Load() {
		ss.mu.Unlock()
		nc.Write([]byte("HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nContent-Length: 8\r\n\r\ndraining")) //nolint:errcheck // closing anyway
		return
	}
	if ss.open == nil {
		ss.open = make(map[*Stream]context.CancelFunc)
	}
	ss.open[st] = cancel
	ss.wg.Add(1)
	ss.mu.Unlock()
	// A drain waits for the stream's access-log line too: with a logger,
	// ServeHTTP marks the stream ended once it has written the line.
	ended := ss.wg.Done
	if sw, ok := w.(*statusWriter); ok {
		sw.ended, ended = ended, nil
	}
	defer func() {
		ss.mu.Lock()
		delete(ss.open, st)
		ss.mu.Unlock()
		if ended != nil {
			ended()
		}
	}()
	if _, err := nc.Write([]byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + protocol + "\r\n\r\n")); err != nil {
		return
	}
	serve(st)
}

// hasToken reports whether the comma-separated header key lists token,
// in any case.
func hasToken(h http.Header, key, token string) bool {
	for _, v := range h.Values(key) {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

// Context ends when the stream's serve returns or a drain gives up on it.
func (st *Stream) Context() context.Context { return st.ctx }

// Next waits for the first byte of the stream's next record and reports
// whether it came: false once the peer has closed the stream, the
// connection failed or the front drains while the stream waits.  A record
// whose first byte has come is the stream's to answer, whenever a drain
// starts.
func (st *Stream) Next() bool {
	st.mu.Lock()
	st.busy = false
	st.mu.Unlock()
	if st.draining.Load() {
		return false
	}
	if _, err := st.R.Peek(1); err != nil {
		return false
	}
	st.mu.Lock()
	st.busy = true
	if st.draining.Load() {
		// The drain may have interrupted the wait this byte ended.
		st.nc.SetReadDeadline(time.Time{}) //nolint:errcheck // a closed conn fails the read
	}
	st.mu.Unlock()
	return true
}

// Write writes one answer.
func (st *Stream) Write(b []byte) error {
	_, err := st.nc.Write(b)
	return err
}

// interruptIdle ends the wait of a stream that has no record in hand.
func (st *Stream) interruptIdle() {
	st.mu.Lock()
	if !st.busy {
		st.nc.SetReadDeadline(aLongTimeAgo) //nolint:errcheck // a closed conn has ended anyway
	}
	st.mu.Unlock()
}

// aLongTimeAgo is the deadline that interrupts a connection's I/O.
var aLongTimeAgo = time.Unix(1, 0)

// Streams returns the number of upgraded streams being served.
func (f *Front) Streams() int {
	ss := &f.streams
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.open)
}

// DrainStreams ends the front's upgraded streams, and refuses new ones: a
// stream waiting for a record closes at once, one with a record in hand
// answers it and then closes.  It returns nil once every stream's serve
// has returned and its access-log line is written; when ctx ends first, it cancels and closes the rest, waits
// for them and returns ctx.Err().
func (f *Front) DrainStreams(ctx context.Context) error {
	ss := &f.streams
	ss.mu.Lock()
	ss.draining.Store(true)
	for st := range ss.open {
		st.interruptIdle()
	}
	ss.mu.Unlock()
	done := make(chan struct{})
	go func() {
		ss.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	ss.mu.Lock()
	for st, cancel := range ss.open {
		cancel()
		st.nc.Close()
	}
	ss.mu.Unlock()
	<-done
	return ctx.Err()
}
