// Package front is the HTTP front that flixd (internal/server) and
// flixd-router (internal/shard) both serve the public query API through.
// It owns the wire contract — request IDs, the access log, admission
// (readiness → cluster saturation → semaphore → deadline), parameter
// parsing, node resolution and rendering, the /v1/descendants,
// /v1/connected, /v1/query and /v1/batch handlers, the JSON success and
// error shapes, and the per-endpoint request counters and latency
// histograms with their /metrics exposition — and evaluates nothing itself:
// every admitted request runs against a Backend the serving Tier opens for
// it.  The paper's client is decoupled from the framework (§3.1); this
// package is where that decoupling lives, once, for both tiers.
package front

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flix"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/xmlgraph"
)

// RequestIDHeader carries a request's ID on every response, and from the
// router to every shard RPC the query fans out into, so one query's hops
// correlate across the access logs and traces of the whole cluster.
const RequestIDHeader = "X-Flix-Request-Id"

// Config holds the limits of one tier's front.  Zero values take the
// defaults both daemons document.
type Config struct {
	// Who names the tier in the 429 body ("server", "router").
	Who string
	// MetricPrefix prefixes the shared /metrics families ("flix",
	// "flix_router"): a scrape of a mixed fleet must be able to tell a
	// router's request counters from a node's.
	MetricPrefix string
	// MaxInFlight bounds concurrently evaluating requests; the excess is
	// shed with 429.  Default 64.
	MaxInFlight int
	// DefaultTimeout applies without ?timeout=; MaxTimeout clamps it.
	// Defaults 2s and 30s.
	DefaultTimeout, MaxTimeout time.Duration
	// DefaultLimit applies without ?k=; MaxLimit clamps it.  Defaults 100
	// and 10000.
	DefaultLimit, MaxLimit int
	// MaxBatch caps the queries in one POST /v1/batch.  Default 256.
	MaxBatch int
	// Logger receives one access-log line per request.  Nil disables it.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DefaultLimit <= 0 {
		c.DefaultLimit = 100
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 10000
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	return c
}

// Gate is a readiness check run before the admission semaphore: status 0
// admits, 503 means not ready, 429 means saturated behind this tier.
type Gate func() (status int, msg string)

// Tier is what a serving tier plugs into the front.
type Tier interface {
	// Gate guards the public endpoints.
	Gate() (status int, msg string)
	// Open returns the backend one admitted request evaluates against; ctx
	// carries the request deadline.
	Open(ctx context.Context, req Request) Backend
}

// Request identifies one admitted request to its tier.
type Request struct {
	ID       string
	Endpoint string // "descendants", "connected", "query" or "batch"
	// Trace reports that the client asked for the evaluation trace in the
	// response (?trace=1; never set for a batch, whose answer carries none).
	Trace bool
}

// Backend is one admitted request's view of its tier: a node evaluates on
// the index generation it captured when the request was opened, the router
// scatters over the cluster.  It is used by one goroutine.
type Backend interface {
	// Descendants streams the elements named tag reachable from start in
	// ascending distance order — through the query cache on a node, as one
	// scatter-gather on the router.
	Descendants(start xmlgraph.NodeID, tag string, opts flix.Options, fn flix.Emit)
	// Connected is the point-to-point connection test.
	Connected(from, to xmlgraph.NodeID, opts flix.Options) (dist int32, ok bool)
	// Evaluator returns a ranked-query evaluator bound to this request.
	Evaluator() *query.Evaluator
	// Locate returns the keys batch execution is ordered by: the meta
	// document of start, and whether the tier can answer start//tag
	// without evaluating (a node's query cache; never on the router).
	Locate(start xmlgraph.NodeID, tag string) (meta int32, hit bool)
	// TakePartial reports, and forgets, whether the evaluations since the
	// previous call were cut short other than by a ranked evaluator's own
	// cancellation (which it reports itself): the deadline passing during
	// a node's scan; a failed shard, a truncated shard evaluation, the hop
	// budget or the deadline during a gather.
	TakePartial() bool
	// Finish adds what only this tier reports to a single-query response
	// before it is written: generation and engine trace on a node;
	// partial, failedShards, rounds, the X-Flix-Shards-Failed header and
	// the cluster trace on the router.  ev is the evaluator of a ranked
	// query, nil otherwise.
	Finish(w http.ResponseWriter, reply *Reply, results int, ev *query.Evaluator)
	// FinishBatch is Finish for a batch response.
	FinishBatch(w http.ResponseWriter, reply *Reply)
	// Done runs after the response is written, with the handling time.
	Done(elapsed time.Duration)
}

// Front is one tier's instance of the shared front.
type Front struct {
	coll *xmlgraph.Collection
	cfg  Config
	tier Tier
	sem  chan struct{}

	reqSeq atomic.Uint64

	// mux routes the tier's endpoints; requests and latency hold one
	// counter and one lock-free histogram per admitted endpoint.  New,
	// Handle and Admit fill them while the tier is constructed; they are
	// read-only once the front serves, so requests need no lock.
	mux      *http.ServeMux
	requests map[string]*atomic.Int64
	latency  map[string]*obs.Histogram

	// Shed counts 429s, NotReady 503s before readiness, Timeouts requests
	// whose deadline passed while they were handled, ClientErrors 4xx
	// answers other than 429.
	Shed, NotReady, Timeouts, ClientErrors atomic.Int64
}

// New returns a front over the collection both tiers resolve and render
// nodes from, with the four public query endpoints mounted.  The tier adds
// its own endpoints with Handle and Admit and then serves the Front itself.
func New(coll *xmlgraph.Collection, cfg Config, tier Tier) *Front {
	cfg = cfg.withDefaults()
	f := &Front{
		coll:     coll,
		cfg:      cfg,
		tier:     tier,
		sem:      make(chan struct{}, cfg.MaxInFlight),
		mux:      http.NewServeMux(),
		requests: make(map[string]*atomic.Int64),
		latency:  make(map[string]*obs.Histogram),
	}
	f.public("/v1/descendants", "descendants", f.descendants)
	f.public("/v1/connected", "connected", f.connected)
	f.public("/v1/query", "query", f.query)
	f.public("/v1/batch", "batch", f.batch)
	return f
}

// Handle mounts an endpoint that is not admitted: status, metrics, admin.
func (f *Front) Handle(pattern string, h http.HandlerFunc) { f.mux.HandleFunc(pattern, h) }

// InFlight returns the number of requests holding an admission slot.
func (f *Front) InFlight() int { return len(f.sem) }

// MaxInFlight returns the admission limit.
func (f *Front) MaxInFlight() int { return cap(f.sem) }

// Requests returns how many requests an endpoint has received.
func (f *Front) Requests(endpoint string) int64 {
	if c := f.requests[endpoint]; c != nil {
		return c.Load()
	}
	return 0
}

// Latency returns the per-endpoint latency histograms; callers only read.
func (f *Front) Latency() map[string]*obs.Histogram { return f.latency }

// ServeHTTP gives every response an X-Flix-Request-Id and, with a logger
// configured, writes the access log.  A syntactically valid incoming ID is
// reused — the router stamps its ID onto every shard RPC, which is what
// makes one query traceable across the cluster's logs.  The ID travels in
// the response header, where admitted handlers read it back; that spares
// every request a context value and a copy of the *http.Request.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := SanitizeRequestID(r.Header.Get(RequestIDHeader))
	if id == "" {
		id = requestID(f.reqSeq.Add(1))
	}
	w.Header().Set(RequestIDHeader, id)
	if f.cfg.Logger == nil {
		f.mux.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	f.mux.ServeHTTP(sw, r)
	f.cfg.Logger.Printf("id=%s %s %s %d %s", id,
		r.Method, r.URL.RequestURI(), sw.status, time.Since(t0).Round(time.Microsecond))
}

// requestID formats a request's sequence number as fmt's %08x does — at
// least eight hex digits, zero-padded — through a buffer on the stack.
func requestID(seq uint64) string {
	var buf [8 + 16]byte
	b := strconv.AppendUint(append(buf[:0], "00000000"...), seq, 16)
	return string(b[min(len(b)-8, 8):])
}

// statusWriter captures the response code for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// SanitizeRequestID validates a client-supplied request ID: 1..64 chars of
// [A-Za-z0-9._-].  Anything else returns "" (the caller assigns a fresh ID)
// so hostile header values never reach a log line or an upstream header.
func SanitizeRequestID(raw string) string {
	if len(raw) == 0 || len(raw) > 64 {
		return ""
	}
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return raw
}

// Handler is the body of an admitted request: it runs holding an admission
// slot, and ctx ends at the request deadline.  q is the request's query
// string, parsed once, on an endpoint that takes ?timeout=; nil otherwise.
type Handler func(w http.ResponseWriter, r *http.Request, ctx context.Context, q url.Values)

// Admit mounts h at pattern behind the admission pipeline — the gate, the
// semaphore, the deadline — and registers the endpoint's request counter
// and latency histogram.  At the in-flight limit a request is shed at once
// with 429 ("<who> at capacity"): shedding beats queueing under overload,
// because a queued query's deadline keeps ticking while it waits.
// clientTimeout selects the deadline: ?timeout= clamped to MaxTimeout for
// the public endpoints, MaxTimeout for a shard RPC, whose caller owns the
// query deadline.
func (f *Front) Admit(pattern, endpoint, who string, gate Gate, clientTimeout bool, h Handler) {
	requests, latency := new(atomic.Int64), new(obs.Histogram)
	f.requests[endpoint], f.latency[endpoint] = requests, latency
	f.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if code, msg := gate(); code != 0 {
			f.Refuse(w, code, msg)
			return
		}
		select {
		case f.sem <- struct{}{}:
			defer func() { <-f.sem }()
		default:
			f.Refuse(w, http.StatusTooManyRequests, who+" at capacity, retry later")
			return
		}
		timeout := f.cfg.MaxTimeout
		var q url.Values
		if clientTimeout {
			q = r.URL.Query()
			var err error
			if timeout, err = f.timeoutFor(q.Get("timeout")); err != nil {
				f.Fail(w, http.StatusBadRequest, err.Error())
				return
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		t0 := time.Now()
		h(w, r, ctx, q)
		latency.Observe(time.Since(t0))
	})
}

// Expired reports whether the request deadline passed during handling.  It
// also compares against the wall clock: a deadline can pass after the last
// evaluator check but before the timer goroutine closes Done, and a
// response flag should not depend on that race.
func Expired(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	dl, ok := ctx.Deadline()
	return ok && !time.Now().Before(dl)
}

// timedOut is Expired for a response's "timedOut" flag; it counts.
func (f *Front) timedOut(ctx context.Context) bool {
	if !Expired(ctx) {
		return false
	}
	f.Timeouts.Add(1)
	return true
}

// timeoutFor derives the request deadline from ?timeout= (a Go duration
// such as 500ms), clamped to MaxTimeout.
func (f *Front) timeoutFor(raw string) (time.Duration, error) {
	if raw == "" {
		return f.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad timeout %q (want a positive duration like 500ms)", raw)
	}
	return min(d, f.cfg.MaxTimeout), nil
}

// limitFor derives the result limit from ?k=, clamped to MaxLimit.
func (f *Front) limitFor(raw string) (int, error) {
	if raw == "" {
		return f.cfg.DefaultLimit, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k <= 0 {
		return 0, fmt.Errorf("bad k %q (want a positive integer)", raw)
	}
	return min(k, f.cfg.MaxLimit), nil
}

// distParam reads ?maxdist=: a non-negative integer, 0 or absent for no
// bound.  A value past the int32 range of a distance becomes
// math.MaxInt32 — any bound past the element count is no bound — where a
// cast would wrap it into a small or negative one.
func distParam(raw string) (int32, error) {
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(raw, 10, 32)
	if errors.Is(err, strconv.ErrRange) && n > 0 {
		return math.MaxInt32, nil // ParseInt returns the nearest int32 with ErrRange
	}
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%q is not a non-negative integer", raw)
	}
	return int32(n), nil
}

// BoolParam reads a flag-style query parameter.
func BoolParam(raw string) bool {
	return raw == "1" || raw == "true"
}

// resolveNode turns a ?start= / ?from= value into a node: a document name
// resolves to that document's root, anything else must be a numeric NodeID.
func (f *Front) resolveNode(raw string) (xmlgraph.NodeID, error) {
	if raw == "" {
		return xmlgraph.InvalidNode, fmt.Errorf("missing node parameter")
	}
	if d, ok := f.coll.DocByName(raw); ok {
		return f.coll.Doc(d).Root, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 || n >= f.coll.NumNodes() {
		return xmlgraph.InvalidNode, fmt.Errorf("unknown node %q (want a document name or a node id < %d)", raw, f.coll.NumNodes())
	}
	return xmlgraph.NodeID(n), nil
}

// Element is the wire form of one result element: what a client decodes a
// member of "results" into.  (The server writes it from a hit, render.go.)
type Element struct {
	Node xmlgraph.NodeID `json:"node"`
	Tag  string          `json:"tag"`
	Doc  string          `json:"doc"`
	// Text is a snippet of the element's text: whitespace collapsed, cut on
	// a rune boundary to 77 bytes and "..." past 80.
	Text string `json:"text,omitempty"`
	// Dist is the connection distance, or the matched path length of a
	// ranked result.
	Dist int32 `json:"dist"`
}

// okBuf is what one response is collected in and rendered through: the
// buffer it is written from, a second one for what encoding/json encodes on
// the way, and — on the public endpoints — the hits, a batch's items and
// the tier's part of the answer.
type okBuf struct {
	compact, indented bytes.Buffer
	hits              []hit
	items             []batchItem
	reply             Reply
}

var okBufs = sync.Pool{New: func() any { return new(okBuf) }}

// maxPooledOK is the largest buffer OK keeps for the next response; a rare
// huge answer must not pin its megabytes in the pool.
const maxPooledOK = 1 << 20

// release returns b to the pool for the next response, unless a part of it
// grew past what the pool keeps.
func (b *okBuf) release() {
	b.hits, b.items, b.reply = b.hits[:0], b.items[:0], Reply{}
	if b.compact.Cap() <= maxPooledOK && b.indented.Cap() <= maxPooledOK && cap(b.hits) <= maxPooledHits {
		okBufs.Put(b)
	}
}

// OK writes a 200 JSON response, indented by two spaces, for any value:
// status bodies, admin answers, what a shard tells its router.  (The four
// public endpoints write theirs by hand, render.go.)  A json.Encoder with
// SetIndent keeps its indent buffer only as long as it lives — one
// response, so the buffer is regrown from nothing each time and outweighs
// everything else a request allocates.  OK makes the encoder's two passes
// itself — encode compact with the closing newline, indent — through pooled
// buffers: the same bytes in the same single Write.
func OK(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	b := okBufs.Get().(*okBuf)
	b.compact.Reset()
	b.indented.Reset()
	if json.NewEncoder(&b.compact).Encode(v) == nil &&
		json.Indent(&b.indented, b.compact.Bytes(), "", "  ") == nil {
		w.Write(b.indented.Bytes()) //nolint:errcheck // client gone; nothing to do
	}
	b.release()
}

// Fail writes an error JSON response and counts client errors.
func (f *Front) Fail(w http.ResponseWriter, code int, msg string) {
	if code >= 400 && code < 500 && code != http.StatusTooManyRequests {
		f.ClientErrors.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{"error": msg}) //nolint:errcheck
}

// Refuse turns a request away for now — 503 not ready, 429 at capacity —
// with Retry-After, and counts it.
func (f *Front) Refuse(w http.ResponseWriter, code int, msg string) {
	if code == http.StatusTooManyRequests {
		f.Shed.Add(1)
	} else {
		f.NotReady.Add(1)
	}
	w.Header().Set("Retry-After", "1")
	f.Fail(w, code, msg)
}

// FailMethod answers a request whose method is not POST.
func (f *Front) FailMethod(w http.ResponseWriter, msg string) {
	w.Header().Set("Allow", http.MethodPost)
	f.Fail(w, http.StatusMethodNotAllowed, msg)
}

// public admits a query endpoint through the tier's gate and runs serve
// against the backend the tier opens for the request.
func (f *Front) public(pattern, endpoint string, serve func(http.ResponseWriter, *http.Request, context.Context, url.Values, Backend)) {
	f.Admit(pattern, endpoint, f.cfg.Who, f.tier.Gate, true, func(w http.ResponseWriter, r *http.Request, ctx context.Context, q url.Values) {
		be := f.tier.Open(ctx, Request{
			ID:       w.Header().Get(RequestIDHeader),
			Endpoint: endpoint,
			Trace:    endpoint != "batch" && BoolParam(q.Get("trace")),
		})
		t0 := time.Now()
		serve(w, r, ctx, q, be)
		be.Done(time.Since(t0))
	})
}

// descendants answers GET /v1/descendants?start=<doc|node>&tag=<tag>
// [&k=][&maxdist=][&self=1][&order=exact][&timeout=][&trace=1].  An empty
// tag is the wildcard start//*.
func (f *Front) descendants(w http.ResponseWriter, r *http.Request, ctx context.Context, q url.Values, be Backend) {
	start, err := f.resolveNode(q.Get("start"))
	if err != nil {
		f.Fail(w, http.StatusNotFound, "start: "+err.Error())
		return
	}
	k, err := f.limitFor(q.Get("k"))
	if err != nil {
		f.Fail(w, http.StatusBadRequest, err.Error())
		return
	}
	maxDist, err := distParam(q.Get("maxdist"))
	if err != nil {
		f.Fail(w, http.StatusBadRequest, "bad maxdist: "+err.Error())
		return
	}
	b := okBufs.Get().(*okBuf)
	defer b.release()
	be.Descendants(start, q.Get("tag"), flix.Options{
		MaxResults:  k,
		MaxDist:     maxDist,
		IncludeSelf: BoolParam(q.Get("self")),
		ExactOrder:  q.Get("order") == "exact",
		Cancel:      ctx.Done(),
	}, func(res flix.Result) bool {
		b.hits = append(b.hits, hit{node: res.Node, dist: res.Dist})
		return true
	})
	timedOut := f.timedOut(ctx)
	be.Finish(w, &b.reply, len(b.hits), nil)
	f.writeList(w, b, false, timedOut)
}

// connected answers GET /v1/connected?from=<doc|node>&to=<doc|node>
// [&maxdist=][&timeout=][&trace=1].
func (f *Front) connected(w http.ResponseWriter, r *http.Request, ctx context.Context, q url.Values, be Backend) {
	from, err := f.resolveNode(q.Get("from"))
	if err != nil {
		f.Fail(w, http.StatusNotFound, "from: "+err.Error())
		return
	}
	to, err := f.resolveNode(q.Get("to"))
	if err != nil {
		f.Fail(w, http.StatusNotFound, "to: "+err.Error())
		return
	}
	maxDist, err := distParam(q.Get("maxdist"))
	if err != nil {
		f.Fail(w, http.StatusBadRequest, "bad maxdist: "+err.Error())
		return
	}
	dist, ok := be.Connected(from, to, flix.Options{MaxDist: maxDist, Cancel: ctx.Done()})
	timedOut := f.timedOut(ctx)
	results := 0
	if ok {
		results = 1
	}
	b := okBufs.Get().(*okBuf)
	defer b.release()
	be.Finish(w, &b.reply, results, nil)
	f.writeConnected(w, b, ok, dist, timedOut)
}

// query answers GET /v1/query?q=<expr>[&k=][&timeout=][&trace=1]: ranked
// path expressions with structural and (when the tier has an ontology)
// semantic vagueness.  A result is an Element whose dist is the matched path
// length, plus "score" and "pathLen".
func (f *Front) query(w http.ResponseWriter, r *http.Request, ctx context.Context, q url.Values, be Backend) {
	expr := q.Get("q")
	if expr == "" {
		f.Fail(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	k, err := f.limitFor(q.Get("k"))
	if err != nil {
		f.Fail(w, http.StatusBadRequest, err.Error())
		return
	}
	pq, err := query.Parse(expr)
	if err != nil {
		f.Fail(w, http.StatusBadRequest, err.Error())
		return
	}
	ev := be.Evaluator()
	ev.MaxResults = k
	matches := ev.EvaluateTopK(pq, k)
	timedOut := f.timedOut(ctx)
	b := okBufs.Get().(*okBuf)
	defer b.release()
	for _, m := range matches {
		b.hits = append(b.hits, hit{node: m.Node, dist: m.PathLen, score: m.Score})
	}
	be.Finish(w, &b.reply, len(b.hits), ev)
	f.writeList(w, b, true, timedOut)
}
