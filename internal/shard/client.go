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
	// maxIdlePerShard bounds the pooled idle connections per shard, of
	// each kind: eval streams and health-probe connections.
	maxIdlePerShard = 32
	// maxAnswer bounds the answer body read from a shard.
	maxAnswer = MaxRecord
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

// Client talks to a fixed set of shards over connections it owns, with
// per-attempt timeouts and retry-with-backoff: eval RPCs as records on
// upgraded eval streams, health probes as HTTP/1.1 on keep-alive
// connections of their own.  An RPC runs on the calling goroutine: one
// write of the request, one read of the answer (the package doc's "The
// transport").  It is safe for concurrent use.
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

// Close closes the idle connections and streams and stops pooling: a
// connection in use closes when its RPC ends, and an RPC after Close still
// runs, on a connection of its own.
func (c *Client) Close() {
	for _, p := range c.pools {
		p.close()
	}
}

// Eval sends one frontier batch to a shard as one record on an eval
// stream and decodes the partial result.  reqID travels in the record
// when front.SanitizeRequestID accepts it.
func (c *Client) Eval(ctx context.Context, shard int, reqID string, req *EvalRequest) (*EvalResponse, error) {
	if front.SanitizeRequestID(reqID) != reqID {
		reqID = ""
	}
	p := c.pools[shard]
	var out EvalResponse
	err := c.do(ctx, func() error {
		var answerErr error
		err := c.exchange(ctx, p, rpc{reqID: reqID, eval: req}, func(status int, answer []byte) {
			answerErr = p.evalAnswer(shard, status, answer, &out)
		})
		switch {
		case err != nil && err == ctx.Err():
			return err
		case errors.Is(err, errBadURL):
			return fmt.Errorf("shard %d: %w", shard, err)
		case err != nil:
			return &retryableError{fmt.Errorf("shard %d: %w", shard, err)}
		}
		return answerErr
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// evalAnswer decodes an eval answer of status into out, or turns it into
// the RPC's error: retryable on 5xx, 429 and a frame that does not decode.
func (p *pool) evalAnswer(shard, status int, answer []byte, out *EvalResponse) error {
	if status != http.StatusOK {
		if len(answer) > 256 {
			answer = answer[:256]
		}
		err := fmt.Errorf("shard %d: status %d: %s", shard, status, bytes.TrimSpace(answer))
		if status >= 500 || status == http.StatusTooManyRequests {
			return &retryableError{err}
		}
		return err
	}
	p.rx.Add(int64(len(answer)))
	if err := out.DecodeFrame(answer); err != nil {
		return &retryableError{fmt.Errorf("shard %d: decode: %w", shard, err)}
	}
	return nil
}

// Health probes a shard's /healthz once, without retries (the prober has
// its own cadence).  A 503 decodes like a 200: "alive but not ready" is a
// valid answer, not an RPC failure.
func (c *Client) Health(ctx context.Context, shard int) (*HealthResponse, error) {
	p := c.pools[shard]
	var out HealthResponse
	var answerErr error
	err := c.exchange(ctx, p, rpc{}, func(status int, body []byte) {
		if status != http.StatusOK && status != http.StatusServiceUnavailable {
			answerErr = fmt.Errorf("shard %d: healthz status %d", shard, status)
		} else if err := json.Unmarshal(body, &out); err != nil {
			answerErr = fmt.Errorf("shard %d: healthz decode: %w", shard, err)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", shard, err)
	}
	if answerErr != nil {
		return nil, answerErr
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
// connections, the most recently used last: eval streams and health-probe
// connections apart.
type pool struct {
	addr        string // host:port to dial
	upgradeHead string // request line and fixed headers of an eval stream's upgrade
	healthHead  string // ... of a health probe
	err         error  // the URL is not a shard URL
	// tx and rx count the eval frame bytes sent to and received from the
	// shard, every attempt included.
	tx, rx atomic.Int64

	mu      sync.Mutex
	streams []*conn
	idle    []*conn
	closed  bool
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
		addr:        addr,
		upgradeHead: "GET " + prefix + EvalPath + " HTTP/1.1" + host + "Connection: Upgrade\r\nUpgrade: " + EvalProtocol + "\r\n",
		healthHead:  "GET " + prefix + "/healthz HTTP/1.1" + host,
	}
}

// rpc is one request to a shard: an eval record when eval is set, a health
// probe otherwise.
type rpc struct {
	reqID string
	eval  *EvalRequest
}

// conn is one connection to a shard: a keep-alive HTTP/1.1 connection, or
// an eval stream once upgraded.
type conn struct {
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	reused bool // it served an exchange before this one
	// records reads an eval stream's answers, and out is the buffer its
	// request records are built in; both nil until the upgrade.
	records *RecordReader
	out     []byte
}

// list returns the idle list of the kind of connection an RPC wants.
func (p *pool) list(stream bool) *[]*conn {
	if stream {
		return &p.streams
	}
	return &p.idle
}

// take pops the most recently used idle connection of the kind, or nil.
func (p *pool) take(stream bool) *conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.list(stream)
	n := len(*l)
	if n == 0 {
		return nil
	}
	cn := (*l)[n-1]
	(*l)[n-1] = nil
	*l = (*l)[:n-1]
	return cn
}

// put pools a connection whose last answer was read in full, or closes it
// when the pool is full or closed.
func (p *pool) put(cn *conn) {
	cn.reused = true
	p.mu.Lock()
	if l := p.list(cn.records != nil); !p.closed && len(*l) < maxIdlePerShard {
		*l = append(*l, cn)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	cn.nc.Close()
}

func (p *pool) close() {
	p.mu.Lock()
	idle := append(p.streams, p.idle...)
	p.streams, p.idle, p.closed = nil, nil, true
	p.mu.Unlock()
	for _, cn := range idle {
		cn.nc.Close()
	}
}

// exchange sends one RPC and hands its answer to use while it still holds
// the connection: the answer is valid only until use returns.  An eval
// takes an idle eval stream or dials one, upgrading it first; a health
// probe takes or dials a plain connection.  The attempt's deadline,
// min(ctx deadline, now+Timeout), is the connection's; a ctx that ends
// interrupts the I/O and the exchange returns ctx.Err().  A request that
// fails on a reused connection before any answer byte arrives met a
// connection the shard had closed while it sat idle: it is sent once more,
// on a fresh connection, within the same attempt.  An answer of any status
// is a nil error, and so is a refused upgrade, whose HTTP status and body
// use is handed instead.
func (c *Client) exchange(ctx context.Context, p *pool, req rpc, use func(status int, answer []byte)) error {
	if p.err != nil {
		return p.err
	}
	deadline := time.Now().Add(c.opts.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	stream := req.eval != nil
	cn := p.take(stream)
	for {
		if cn == nil {
			d := net.Dialer{Deadline: deadline}
			nc, err := d.DialContext(ctx, "tcp", p.addr)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return err
			}
			cn = &conn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
		}
		nc := cn.nc
		nc.SetDeadline(deadline)                                                //nolint:errcheck // a closed conn fails the write below
		stop := context.AfterFunc(ctx, func() { nc.SetDeadline(aLongTimeAgo) }) //nolint:errcheck
		status, answer, keep, unanswered, err := cn.roundTrip(p, req)
		if !stop() {
			keep = false // the ctx clobbered the deadline
		}
		if err == nil {
			use(status, answer)
			if keep {
				p.put(cn)
			} else {
				nc.Close()
			}
			return nil
		}
		nc.Close()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !cn.reused || !unanswered {
			return err
		}
		cn = nil
	}
}

// roundTrip sends req on cn and reads its answer, upgrading a fresh
// connection to an eval stream first when req is an eval.  keep reports
// that the answer was read in full and the connection can serve another
// RPC; unanswered, that the request failed before any answer byte
// arrived, not for a timeout.  A refused upgrade returns its HTTP answer.
func (cn *conn) roundTrip(p *pool, req rpc) (status int, answer []byte, keep, unanswered bool, err error) {
	if req.eval == nil {
		return cn.httpTrip(p.healthHead)
	}
	if cn.records == nil {
		status, answer, _, unanswered, err = cn.httpTrip(p.upgradeHead)
		if err != nil || status != http.StatusSwitchingProtocols {
			return status, answer, false, unanswered, err
		}
		cn.records = NewRecordReader(cn.br)
	}
	cn.out = AppendRequest(cn.out[:0], req.reqID, req.eval)
	if _, err := cn.nc.Write(cn.out); err != nil {
		return 0, nil, false, !isTimeout(err), err
	}
	p.tx.Add(int64(len(cn.out) - 5 - int(cn.out[4]))) // the frame: the record less its length and ID
	if _, err := cn.br.Peek(1); err != nil {
		return 0, nil, false, !isTimeout(err), err
	}
	if status, answer, err = cn.records.Answer(); err != nil {
		return 0, nil, false, false, err
	}
	return status, answer, true, false, nil
}

// httpTrip writes one body-less HTTP request, head and a blank line, on cn
// and reads its answer in full.
func (cn *conn) httpTrip(head string) (status int, answer []byte, keep, unanswered bool, err error) {
	cn.bw.WriteString(head)   //nolint:errcheck // bufio.Writer keeps the first error for Flush
	cn.bw.WriteString("\r\n") //nolint:errcheck
	if err := cn.bw.Flush(); err != nil {
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
