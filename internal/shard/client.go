package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/front"
)

// ClientOptions tunes the shard client.  The zero value takes the defaults
// below.
type ClientOptions struct {
	// Timeout bounds each RPC attempt (default 10s); the request context's
	// deadline still applies on top.
	Timeout time.Duration
	// Retries is the number of re-attempts after a failed RPC (default 2,
	// so 3 attempts total; negative means none).  Network errors, 5xx and
	// 429 retry; other 4xx fail fast.
	Retries int
	// Backoff is the base delay before the first retry, doubled per
	// attempt (default 25ms).
	Backoff time.Duration
}

const (
	// maxIdlePerShard bounds the pooled idle connections per shard.
	maxIdlePerShard = 32
	// maxAnswer bounds the answer body read from a shard.
	maxAnswer = 64 << 20
)

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 25 * time.Millisecond
	}
	return o
}

// Client talks HTTP/1.1 to a fixed set of shards over keep-alive
// connections it owns, with per-attempt timeouts and retry-with-backoff.
// An RPC runs on the calling goroutine: one write of the request, one read
// of the answer (the package doc's "The transport").  It is safe for
// concurrent use.
type Client struct {
	pools []*pool
	opts  ClientOptions
}

// NewClient builds a client over the given shard base URLs
// (http://host[:port][/prefix], shard i = urls[i]).  An RPC to a shard
// whose URL is not of that form fails with CheckURL's error.
func NewClient(urls []string, opts ClientOptions) *Client {
	c := &Client{
		pools: make([]*pool, len(urls)),
		opts:  opts.withDefaults(),
	}
	for i, u := range urls {
		c.pools[i] = newPool(u)
	}
	return c
}

// CheckURL reports whether raw is a shard base URL the client can talk to:
// http://host[:port][/prefix], with no user, query or fragment.
func CheckURL(raw string) error { return newPool(raw).err }

// WireBytes returns the eval frame bytes sent to (tx) and received from
// (rx) shard i so far.
func (c *Client) WireBytes(i int) (tx, rx int64) {
	return c.pools[i].tx.Load(), c.pools[i].rx.Load()
}

// Close closes the idle connections and stops pooling: an RPC after Close
// still runs, on a connection of its own.
func (c *Client) Close() {
	for _, p := range c.pools {
		p.close()
	}
}

// Eval sends one frontier batch to a shard and decodes the partial result.
// reqID, when front.SanitizeRequestID accepts it, travels as the
// X-Flix-Request-Id header.
func (c *Client) Eval(ctx context.Context, shard int, reqID string, req *EvalRequest) (*EvalResponse, error) {
	body := req.AppendFrame(nil)
	if front.SanitizeRequestID(reqID) != reqID {
		reqID = ""
	}
	p := c.pools[shard]
	var out EvalResponse
	err := c.do(ctx, func() error {
		p.tx.Add(int64(len(body)))
		status, frame, err := c.exchange(ctx, p, p.evalHead, body, reqID)
		switch {
		case err != nil && err == ctx.Err():
			return err
		case errors.Is(err, errBadURL):
			return fmt.Errorf("shard %d: %w", shard, err)
		case err != nil:
			return &retryableError{fmt.Errorf("shard %d: %w", shard, err)}
		case status != http.StatusOK:
			if len(frame) > 256 {
				frame = frame[:256]
			}
			err := fmt.Errorf("shard %d: status %d: %s", shard, status, bytes.TrimSpace(frame))
			if status >= 500 || status == http.StatusTooManyRequests {
				return &retryableError{err}
			}
			return err
		}
		p.rx.Add(int64(len(frame)))
		if err := out.DecodeFrame(frame); err != nil {
			return &retryableError{fmt.Errorf("shard %d: decode: %w", shard, err)}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Health probes a shard's /healthz once, without retries (the prober has
// its own cadence).  A 503 decodes like a 200: "alive but not ready" is a
// valid answer, not an RPC failure.
func (c *Client) Health(ctx context.Context, shard int) (*HealthResponse, error) {
	p := c.pools[shard]
	status, body, err := c.exchange(ctx, p, p.healthHead, nil, "")
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", shard, err)
	}
	if status != http.StatusOK && status != http.StatusServiceUnavailable {
		return nil, fmt.Errorf("shard %d: healthz status %d", shard, status)
	}
	var out HealthResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("shard %d: healthz decode: %w", shard, err)
	}
	return &out, nil
}

// do runs one RPC attempt after another, with backoff between them, until
// one succeeds, fails for good or the retries run out.
func (c *Client) do(ctx context.Context, attempt func() error) error {
	var lastErr error
	for n := 0; n <= c.opts.Retries; n++ {
		if n > 0 {
			delay := c.opts.Backoff << uint(n-1)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		lastErr = attempt()
		if lastErr == nil {
			return nil
		}
		var re *retryableError
		if !errors.As(lastErr, &re) {
			return lastErr
		}
	}
	return lastErr
}

// retryableError marks transient failures (network errors, 5xx, 429) that
// the backoff loop may re-attempt.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

var (
	errBadURL   = errors.New("not a shard URL of the form http://host[:port][/prefix]")
	errTooLarge = fmt.Errorf("answer exceeds %d bytes", maxAnswer)
	// aLongTimeAgo is the deadline that interrupts a connection's I/O.
	aLongTimeAgo = time.Unix(1, 0)
)

// pool is one shard's address, its two request heads and its idle
// keep-alive connections, the most recently used last.
type pool struct {
	addr       string // host:port to dial
	evalHead   string // request line and fixed headers of an eval RPC
	healthHead string // ... of a health probe
	err        error  // the URL is not a shard URL
	// tx and rx count the eval frame bytes sent to and received from the
	// shard, every attempt included.
	tx, rx atomic.Int64

	mu     sync.Mutex
	idle   []*conn
	closed bool
}

func newPool(raw string) *pool {
	u, err := url.Parse(raw)
	if err != nil || u.Scheme != "http" || u.Hostname() == "" || u.User != nil ||
		u.Opaque != "" || u.RawQuery != "" || u.ForceQuery || u.Fragment != "" {
		return &pool{err: fmt.Errorf("%q: %w", raw, errBadURL)}
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	prefix := strings.TrimRight(u.EscapedPath(), "/")
	host := "\r\nHost: " + u.Host + "\r\n"
	return &pool{
		addr:       addr,
		evalHead:   "POST " + prefix + "/v1/shard/eval HTTP/1.1" + host + "Content-Type: " + FrameContentType + "\r\n",
		healthHead: "GET " + prefix + "/healthz HTTP/1.1" + host,
	}
}

// conn is one keep-alive connection to a shard.
type conn struct {
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	reused bool // it served an exchange before this one
}

// take pops the most recently used idle connection, or nil.
func (p *pool) take() *conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	cn := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return cn
}

// put pools a connection whose last answer was read in full, or closes it
// when the pool is full or closed.
func (p *pool) put(cn *conn) {
	cn.reused = true
	p.mu.Lock()
	if !p.closed && len(p.idle) < maxIdlePerShard {
		p.idle = append(p.idle, cn)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	cn.nc.Close()
}

func (p *pool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, cn := range idle {
		cn.nc.Close()
	}
}

// exchange sends one request — head, the optional Content-Length and
// request-ID headers, body — and reads the answer in full.  The attempt's
// deadline, min(ctx deadline, now+Timeout), is the connection's; a ctx
// that ends interrupts the I/O and the exchange returns ctx.Err().  A
// request that fails on a reused connection before any answer byte arrives
// met a connection the shard had closed while it sat idle: it is sent once
// more, on a fresh connection, within the same attempt.  An answer of any
// status is a nil error.
func (c *Client) exchange(ctx context.Context, p *pool, head string, body []byte, reqID string) (status int, answer []byte, err error) {
	if p.err != nil {
		return 0, nil, p.err
	}
	deadline := time.Now().Add(c.opts.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	cn := p.take()
	for {
		if cn == nil {
			d := net.Dialer{Deadline: deadline}
			nc, err := d.DialContext(ctx, "tcp", p.addr)
			if err != nil {
				if ctx.Err() != nil {
					return 0, nil, ctx.Err()
				}
				return 0, nil, err
			}
			cn = &conn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
		}
		nc := cn.nc
		nc.SetDeadline(deadline)                                                //nolint:errcheck // a closed conn fails the write below
		stop := context.AfterFunc(ctx, func() { nc.SetDeadline(aLongTimeAgo) }) //nolint:errcheck
		var keep, unanswered bool
		status, answer, keep, unanswered, err = cn.roundTrip(head, body, reqID)
		if !stop() {
			keep = false // the ctx clobbered the deadline
		}
		if err == nil {
			if keep {
				p.put(cn)
			} else {
				nc.Close()
			}
			return status, answer, nil
		}
		nc.Close()
		if ctx.Err() != nil {
			return 0, nil, ctx.Err()
		}
		if !cn.reused || !unanswered {
			return 0, nil, err
		}
		cn = nil
	}
}

// roundTrip writes one request on cn and reads its answer.  keep reports
// that the answer was read in full and the shard keeps the connection
// open; unanswered, that the request failed before any answer byte
// arrived, not for a timeout.
func (cn *conn) roundTrip(head string, body []byte, reqID string) (status int, answer []byte, keep, unanswered bool, err error) {
	bw := cn.bw
	bw.WriteString(head) //nolint:errcheck // bufio.Writer keeps the first error for Flush
	if body != nil {
		bw.WriteString("Content-Length: ")                                      //nolint:errcheck
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(body)), 10)) //nolint:errcheck
		bw.WriteString("\r\n")                                                  //nolint:errcheck
	}
	if reqID != "" {
		bw.WriteString(RequestIDHeader + ": ") //nolint:errcheck
		bw.WriteString(reqID)                  //nolint:errcheck
		bw.WriteString("\r\n")                 //nolint:errcheck
	}
	bw.WriteString("\r\n") //nolint:errcheck
	bw.Write(body)         //nolint:errcheck
	if err := bw.Flush(); err != nil {
		return 0, nil, false, !isTimeout(err), err
	}
	if _, err := cn.br.Peek(1); err != nil {
		return 0, nil, false, !isTimeout(err), err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return 0, nil, false, false, err
	}
	if answer, err = readBody(resp); err != nil {
		return 0, nil, false, false, err
	}
	return resp.StatusCode, answer, !resp.Close, false, nil
}

// readBody reads an answer's body in full, at most maxAnswer bytes of it:
// a Content-Length body into one buffer of its size, any other until EOF.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxAnswer {
		b := make([]byte, n)
		_, err := io.ReadFull(resp.Body, b)
		return b, err
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxAnswer+1))
	if err == nil && len(b) > maxAnswer {
		err = errTooLarge
	}
	return b, err
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
