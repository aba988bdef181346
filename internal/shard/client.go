package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// ClientOptions tunes the shard client.  The zero value takes the defaults
// below.
type ClientOptions struct {
	// Timeout bounds each RPC attempt (default 10s); the request context's
	// deadline still applies on top.
	Timeout time.Duration
	// Retries is the number of re-attempts after a failed RPC (default 2,
	// so 3 attempts total).  Network errors, 5xx and 429 retry; other 4xx
	// fail fast.
	Retries int
	// Backoff is the base delay before the first retry, doubled per
	// attempt (default 25ms).
	Backoff time.Duration
	// MaxIdlePerShard bounds the pooled idle connections per shard
	// (default 32).
	MaxIdlePerShard int
}

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
	if o.MaxIdlePerShard <= 0 {
		o.MaxIdlePerShard = 32
	}
	return o
}

// Client talks to a fixed set of shards over HTTP with pooled connections,
// per-attempt timeouts and retry-with-backoff.  It is safe for concurrent
// use.
type Client struct {
	urls []string
	hc   *http.Client
	opts ClientOptions
	// wire counts the eval frame bytes sent to and received from each
	// shard, every attempt included.
	wire []wireBytes
}

type wireBytes struct{ tx, rx atomic.Int64 }

// NewClient builds a client over the given shard base URLs
// (http://host:port, shard i = urls[i]).
func NewClient(urls []string, opts ClientOptions) *Client {
	opts = opts.withDefaults()
	return &Client{
		urls: urls,
		hc: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        opts.MaxIdlePerShard * len(urls),
				MaxIdleConnsPerHost: opts.MaxIdlePerShard,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		opts: opts,
		wire: make([]wireBytes, len(urls)),
	}
}

// URL returns shard i's base URL.
func (c *Client) URL(i int) string { return c.urls[i] }

// WireBytes returns the eval frame bytes sent to (tx) and received from
// (rx) shard i so far.
func (c *Client) WireBytes(i int) (tx, rx int64) {
	return c.wire[i].tx.Load(), c.wire[i].rx.Load()
}

// Eval sends one frontier batch to a shard and decodes the partial result.
// reqID, when non-empty, travels as the X-Flix-Request-Id header.
func (c *Client) Eval(ctx context.Context, shard int, reqID string, req *EvalRequest) (*EvalResponse, error) {
	body := req.AppendFrame(nil)
	var out EvalResponse
	err := c.do(ctx, shard, func(ctx context.Context) (*http.Request, error) {
		r, err := http.NewRequestWithContext(ctx, http.MethodPost, c.urls[shard]+"/v1/shard/eval", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		r.Header.Set("Content-Type", FrameContentType)
		if reqID != "" {
			r.Header.Set(RequestIDHeader, reqID)
		}
		if req.Trace {
			r.Header.Set(TraceHeader, "1")
		}
		c.wire[shard].tx.Add(int64(len(body)))
		return r, nil
	}, func(body io.Reader) error {
		frame, err := io.ReadAll(body)
		c.wire[shard].rx.Add(int64(len(frame)))
		if err != nil {
			return err
		}
		return out.DecodeFrame(frame)
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Links fetches a shard's topology view; summary omits the bulky per-node
// assignment.
func (c *Client) Links(ctx context.Context, shard int, summary bool) (*LinksResponse, error) {
	url := c.urls[shard] + "/v1/shard/links"
	if summary {
		url += "?summary=1"
	}
	var out LinksResponse
	err := c.do(ctx, shard, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	}, func(body io.Reader) error { return json.NewDecoder(body).Decode(&out) })
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Health probes a shard's /healthz once, without retries (the prober has
// its own cadence).  A 503 decodes like a 200: "alive but not ready" is a
// valid answer, not an RPC failure.
func (c *Client) Health(ctx context.Context, shard int) (*HealthResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.urls[shard]+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, fmt.Errorf("shard %d: healthz status %d", shard, resp.StatusCode)
	}
	var out HealthResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil {
		return nil, fmt.Errorf("shard %d: healthz decode: %w", shard, err)
	}
	return &out, nil
}

// do runs one RPC with per-attempt timeouts and retry-with-backoff; decode
// reads a 200 answer's body (at most 64 MiB of it).
func (c *Client) do(ctx context.Context, shard int, build func(context.Context) (*http.Request, error), decode func(io.Reader) error) error {
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			delay := c.opts.Backoff << uint(attempt-1)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		lastErr = c.attempt(ctx, shard, build, decode)
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

func (c *Client) attempt(ctx context.Context, shard int, build func(context.Context) (*http.Request, error), decode func(io.Reader) error) error {
	ctx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	req, err := build(ctx)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return &retryableError{fmt.Errorf("shard %d: %w", shard, err)}
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		err := fmt.Errorf("shard %d: status %d: %s", shard, resp.StatusCode, bytes.TrimSpace(body))
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			return &retryableError{err}
		}
		return err
	}
	if err := decode(io.LimitReader(resp.Body, 64<<20)); err != nil {
		return &retryableError{fmt.Errorf("shard %d: decode: %w", shard, err)}
	}
	return nil
}

// retryableError marks transient failures (network errors, 5xx, 429) that
// the backoff loop may re-attempt.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// drainClose drains and closes a response body so the pooled connection is
// reusable.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20)) //nolint:errcheck
	body.Close()
}
