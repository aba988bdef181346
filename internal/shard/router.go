package shard

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/front"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/xmlgraph"
)

// RouterConfig tunes the scatter-gather router.  Shards is required; zero
// values elsewhere take the documented defaults.
type RouterConfig struct {
	// Shards lists the shard base URLs; shard i of the ring is Shards[i].
	Shards []string
	// VNodes is the ring's virtual-node count per shard; it must match the
	// shards' -shard-vnodes.  Default DefaultVNodes.
	VNodes int
	// Quorum is the number of ready shards required before the router
	// reports ready (0 = all shards).  Queries may still touch a non-ready
	// shard and come back partial; the quorum gates admission, not
	// correctness.
	Quorum int
	// HopBudget bounds the cross-shard hop entries dispatched per query;
	// exhausting it returns a partial result.  Default 100000.
	HopBudget int
	// MaxInFlight bounds concurrently evaluating queries (excess sheds
	// with 429).  Default 64.
	MaxInFlight int
	// DefaultTimeout / MaxTimeout mirror the single-node server's
	// per-request deadline handling.  Defaults 2s / 30s.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DefaultLimit / MaxLimit mirror the single-node result limits.
	// Defaults 100 / 10000.
	DefaultLimit int
	MaxLimit     int
	// MaxBatch caps the number of queries in one POST /v1/batch request.
	// Default 256.
	MaxBatch int
	// ShardTimeout bounds each shard RPC attempt.  Default 10s.
	ShardTimeout time.Duration
	// Retries / RetryBackoff tune the shard client.  Defaults 2 / 25ms.
	Retries      int
	RetryBackoff time.Duration
	// ProbeInterval is the health-probe cadence.  Default 1s.
	ProbeInterval time.Duration
	// Logger receives access-log lines and prober events.  Nil disables.
	Logger *log.Logger
}

// withDefaults fills in what the router itself reads; the request limits
// take their defaults in front.New.
func (c RouterConfig) withDefaults() RouterConfig {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.Quorum <= 0 || c.Quorum > len(c.Shards) {
		c.Quorum = len(c.Shards)
	}
	if c.HopBudget <= 0 {
		c.HopBudget = 100000
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 10 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	return c
}

// topology is the router's immutable view of the cluster's meta-document
// decomposition, bootstrapped from a shard's /v1/shard/links and swapped
// atomically.
type topology struct {
	numMetas    int
	numNodes    int
	metaOf      []int32
	linkCounts  []int32
	fingerprint string
	loadedFrom  int
}

// shardState is the router's live view of one shard, updated by the prober
// and the gather loop, read by admission and /statsz.
type shardState struct {
	url         string
	ready       atomic.Bool
	saturated   atomic.Bool
	generation  atomic.Uint64
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
	consecFails atomic.Int64
	probes      atomic.Int64
	probeFails  atomic.Int64
	rpcs        atomic.Int64
	rpcErrors   atomic.Int64
	results     atomic.Int64 // result entries the shard's eval answers carried
	lastErr     atomic.Pointer[string]
	fingerprint atomic.Pointer[string]
}

func (st *shardState) setErr(msg string) {
	st.lastErr.Store(&msg)
}

func (st *shardState) errString() string {
	if p := st.lastErr.Load(); p != nil {
		return *p
	}
	return ""
}

// Router fans queries out over a fixed set of flixd shards and merges the
// per-shard streams back into single-node-shaped responses.  It owns no
// index — only the collection (for node resolution and result rendering)
// and the ring.
type Router struct {
	coll   *xmlgraph.Collection
	onto   *ontology.Ontology
	cfg    RouterConfig
	client *Client
	ring   *Ring

	topo   atomic.Pointer[topology]
	shards []*shardState

	// front is the router's HTTP handler: the public query API of
	// internal/front over this router's gathers, plus its status endpoints.
	front   *front.Front
	started time.Time

	shardLatency []*obs.Histogram

	fanouts          atomic.Int64
	gathers          atomic.Int64
	rounds           atomic.Int64
	hops             atomic.Int64
	hopsDeduped      atomic.Int64
	hopsRedispatched atomic.Int64
	budgetStops      atomic.Int64
	earlyStops       atomic.Int64
	partials         atomic.Int64
	shardFailures    atomic.Int64
	tracedQueries    atomic.Int64
}

// NewRouter builds a router over the collection the shards serve.  Call
// Start to begin health probing; the router reports ready once the topology
// is loaded and a quorum of shards is up.
func NewRouter(coll *xmlgraph.Collection, cfg RouterConfig) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard URL")
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		coll: coll,
		cfg:  cfg,
		client: NewClient(cfg.Shards, ClientOptions{
			Timeout: cfg.ShardTimeout,
			Retries: cfg.Retries,
			Backoff: cfg.RetryBackoff,
		}),
		ring:    NewRing(len(cfg.Shards), cfg.VNodes),
		started: time.Now(),
	}
	rt.front = front.New(coll, front.Config{
		Who:            "router",
		MetricPrefix:   "flix_router",
		MaxInFlight:    cfg.MaxInFlight,
		DefaultTimeout: cfg.DefaultTimeout,
		MaxTimeout:     cfg.MaxTimeout,
		DefaultLimit:   cfg.DefaultLimit,
		MaxLimit:       cfg.MaxLimit,
		MaxBatch:       cfg.MaxBatch,
		Logger:         cfg.Logger,
	}, (*routerTier)(rt))
	rt.front.Handle("/healthz", rt.handleHealthz)
	rt.front.Handle("/statsz", rt.handleStatsz)
	rt.front.Handle("/metrics", rt.handleMetrics)
	rt.shards = make([]*shardState, len(cfg.Shards))
	rt.shardLatency = make([]*obs.Histogram, len(cfg.Shards))
	for i, url := range cfg.Shards {
		rt.shards[i] = &shardState{url: url}
		rt.shardLatency[i] = new(obs.Histogram)
	}
	return rt, nil
}

// SetOntology installs the tag-similarity ontology for /v1/query ~tag
// expansion.  Must be called before Handler.
func (rt *Router) SetOntology(o *ontology.Ontology) { rt.onto = o }

// Start launches the health prober; it probes immediately, then every
// ProbeInterval until ctx is cancelled.
func (rt *Router) Start(ctx context.Context) {
	go func() {
		rt.probeOnce(ctx)
		t := time.NewTicker(rt.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				rt.probeOnce(ctx)
			}
		}
	}()
}

// probeOnce probes every shard's /healthz in parallel and refreshes the
// topology when needed.
func (rt *Router) probeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for i := range rt.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt.probeShard(ctx, i)
		}(i)
	}
	wg.Wait()
	rt.maybeLoadTopology(ctx)
}

func (rt *Router) probeShard(ctx context.Context, i int) {
	st := rt.shards[i]
	st.probes.Add(1)
	h, err := rt.client.Health(ctx, i)
	if err != nil {
		st.probeFails.Add(1)
		st.consecFails.Add(1)
		st.ready.Store(false)
		st.setErr(err.Error())
		return
	}
	st.generation.Store(h.Generation)
	st.inFlight.Store(int64(h.InFlight))
	st.maxInFlight.Store(int64(h.MaxInFlight))
	st.saturated.Store(h.MaxInFlight > 0 && h.InFlight >= h.MaxInFlight)
	if !h.Ready {
		st.ready.Store(false)
		st.setErr("shard not ready")
		return
	}
	if h.Shard == nil {
		st.ready.Store(false)
		st.setErr("shard is not running in shard mode")
		return
	}
	if h.Shard.ID != i || h.Shard.Count != len(rt.shards) {
		st.ready.Store(false)
		st.setErr(fmt.Sprintf("ring mismatch: shard reports %d/%d, router expects %d/%d",
			h.Shard.ID, h.Shard.Count, i, len(rt.shards)))
		return
	}
	st.fingerprint.Store(&h.Shard.Fingerprint)
	if topo := rt.topo.Load(); topo != nil && h.Shard.Fingerprint != topo.fingerprint {
		st.ready.Store(false)
		st.setErr("meta-document fingerprint disagrees with the loaded topology")
		return
	}
	st.consecFails.Store(0)
	st.setErr("")
	st.ready.Store(true)
}

// maybeLoadTopology bootstraps the topology from the first ready shard, or
// reloads it when every reporting shard has moved to a new (agreeing)
// fingerprint — the whole cluster was reindexed in lockstep.
func (rt *Router) maybeLoadTopology(ctx context.Context) {
	topo := rt.topo.Load()
	from := -1
	if topo == nil {
		for i, st := range rt.shards {
			if st.ready.Load() {
				from = i
				break
			}
		}
	} else {
		// Reload only when no shard matches the loaded topology anymore
		// and all reporting shards agree with each other.
		agreed := ""
		for _, st := range rt.shards {
			fp := st.fingerprint.Load()
			if fp == nil {
				continue
			}
			if *fp == topo.fingerprint {
				return
			}
			if agreed == "" {
				agreed = *fp
			} else if *fp != agreed {
				return
			}
		}
		if agreed == "" {
			return
		}
		for i, st := range rt.shards {
			if fp := st.fingerprint.Load(); fp != nil && *fp == agreed {
				from = i
				break
			}
		}
	}
	if from < 0 {
		return
	}
	lr, err := rt.client.Links(ctx, from, false)
	if err != nil {
		if rt.cfg.Logger != nil {
			rt.cfg.Logger.Printf("topology load from shard %d failed: %v", from, err)
		}
		return
	}
	if lr.Shards != len(rt.shards) || lr.VNodes != rt.cfg.VNodes {
		if rt.cfg.Logger != nil {
			rt.cfg.Logger.Printf("topology from shard %d rejected: ring %d/%d, router %d/%d",
				from, lr.Shards, lr.VNodes, len(rt.shards), rt.cfg.VNodes)
		}
		return
	}
	if lr.NumNodes != rt.coll.NumNodes() || len(lr.MetaOf) != rt.coll.NumNodes() {
		if rt.cfg.Logger != nil {
			rt.cfg.Logger.Printf("topology from shard %d rejected: %d nodes, collection has %d",
				from, lr.NumNodes, rt.coll.NumNodes())
		}
		return
	}
	rt.topo.Store(&topology{
		numMetas:    lr.NumMetas,
		numNodes:    lr.NumNodes,
		metaOf:      lr.MetaOf,
		linkCounts:  lr.LinkCounts,
		fingerprint: lr.Fingerprint,
		loadedFrom:  from,
	})
	if rt.cfg.Logger != nil {
		rt.cfg.Logger.Printf("topology loaded from shard %d: %d meta documents, fingerprint %s",
			from, lr.NumMetas, lr.Fingerprint)
	}
}

// readyShards counts shards currently probing ready.
func (rt *Router) readyShards() int {
	n := 0
	for _, st := range rt.shards {
		if st.ready.Load() {
			n++
		}
	}
	return n
}

// Ready reports whether the router can serve: topology loaded and a quorum
// of shards up.
func (rt *Router) Ready() bool {
	return rt.topo.Load() != nil && rt.readyShards() >= rt.cfg.Quorum
}

// saturatedCluster reports whether every ready shard is at its admission
// limit — the backpressure signal: fanning out another query would only get
// 429s from the shards, so the router sheds it at its own door.
func (rt *Router) saturatedCluster() bool {
	anyReady := false
	for _, st := range rt.shards {
		if !st.ready.Load() {
			continue
		}
		anyReady = true
		if !st.saturated.Load() {
			return false
		}
	}
	return anyReady
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.front }

// routerTier is the Router as the front sees it.
type routerTier Router

// Gate is the single-node admission gate with one extra stage: the router
// serves once the topology is loaded and a quorum of shards is up, and
// sheds at its own door while every ready shard is saturated.
func (t *routerTier) Gate() (int, string) {
	rt := (*Router)(t)
	if !rt.Ready() {
		return http.StatusServiceUnavailable, fmt.Sprintf("router not ready: %d/%d shards up (quorum %d)",
			rt.readyShards(), len(rt.shards), rt.cfg.Quorum)
	}
	if rt.saturatedCluster() {
		return http.StatusTooManyRequests, "all shards at capacity, retry later"
	}
	return 0, ""
}

// Open starts one admitted request's scatter-gather backend, under a
// cluster trace when the client asked for one with ?trace=1; the untraced
// default keeps the gather loop on its untraced path.
func (t *routerTier) Open(ctx context.Context, req front.Request) front.Backend {
	rt := (*Router)(t)
	b := &routerBackend{rt: rt, ctx: ctx, req: req}
	if req.Trace {
		rt.tracedQueries.Add(1)
		b.tb = newTraceBuilder(req.ID, req.Endpoint, len(rt.shards))
	}
	return b
}
