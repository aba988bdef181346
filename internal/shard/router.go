package shard

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flix"
	"repro/internal/front"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/xmlgraph"
)

// RouterConfig tunes the scatter-gather router.  Shards is required; zero
// values elsewhere take the documented defaults.
type RouterConfig struct {
	// Shards lists the shard base URLs, each http://host[:port][/prefix];
	// shard i of the ring is Shards[i].
	Shards []string
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
	// Retries / RetryBackoff tune the shard client.  Defaults 2 / 25ms;
	// Retries -1 makes one attempt per RPC.
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
// decomposition, derived from the settings a shard announces on /healthz
// and swapped atomically.
type topology struct {
	// metaOf is the node→meta-document assignment flix.Assign derived.
	metaOf []int32
	// owner[mi] is the shard owning meta document mi on the router's ring,
	// filled once per load so the gather loop stages a hop without hashing.
	owner       []int32
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
	// announced is the shard block of the shard's last good probe, nil
	// while the shard is down or not serving as this ring position.
	announced atomic.Pointer[ShardHealth]
}

func (st *shardState) setErr(msg string) {
	st.lastErr.Store(&msg)
}

// down marks the shard not ready and forgets its announcement: a shard that
// stops answering must not hold the topology at its last decomposition.
func (st *shardState) down(msg string) {
	st.ready.Store(false)
	st.announced.Store(nil)
	st.setErr(msg)
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

	// scatter is the running sum of every gather's tally, folded in once
	// per gather and read whole by scatterStats, both under scatterMu.
	scatterMu     sync.Mutex
	scatter       gatherTally
	tracedQueries atomic.Int64
	// gathers pools the gathers' working state (*gatherState, gather.go).
	gathers sync.Pool

	// refused is the last announcement a topology load refused; the prober
	// alone touches it, and skips that announcement until it changes.
	refused announcement
}

// announcement is what a topology load derives from: a shard's announced
// fingerprint and decomposition.
type announcement struct {
	fingerprint   string
	decomposition Decomposition
}

// NewRouter builds a router over the collection the shards serve.  Call
// Start to begin health probing; the router reports ready once the topology
// is loaded and a quorum of shards is up.
func NewRouter(coll *xmlgraph.Collection, cfg RouterConfig) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard URL")
	}
	for i, u := range cfg.Shards {
		if err := CheckURL(u); err != nil {
			return nil, fmt.Errorf("shard: shard %d: %w", i, err)
		}
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
		ring:    NewRing(len(cfg.Shards), DefaultVNodes),
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
// ProbeInterval until ctx is cancelled, and then closes the shard client's
// idle connections.
func (rt *Router) Start(ctx context.Context) {
	go func() {
		rt.probeOnce(ctx)
		t := time.NewTicker(rt.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				rt.client.Close()
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
	rt.maybeLoadTopology()
}

func (rt *Router) probeShard(ctx context.Context, i int) {
	st := rt.shards[i]
	st.probes.Add(1)
	h, err := rt.client.Health(ctx, i)
	if err != nil {
		st.probeFails.Add(1)
		st.consecFails.Add(1)
		st.down(err.Error())
		return
	}
	st.generation.Store(h.Generation)
	st.inFlight.Store(int64(h.InFlight))
	st.maxInFlight.Store(int64(h.MaxInFlight))
	st.saturated.Store(h.MaxInFlight > 0 && h.InFlight >= h.MaxInFlight)
	if !h.Ready {
		st.down("shard not ready")
		return
	}
	if h.Shard == nil {
		st.down("shard is not running in shard mode")
		return
	}
	if h.Shard.ID != i || h.Shard.Count != len(rt.shards) {
		st.down(fmt.Sprintf("ring mismatch: shard reports %d/%d, router expects %d/%d",
			h.Shard.ID, h.Shard.Count, i, len(rt.shards)))
		return
	}
	st.announced.Store(h.Shard)
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
// reloads it when every shard announcing one has moved to a new (agreeing)
// fingerprint — the whole cluster was reindexed in lockstep.  The router
// derives the topology: it runs flix.Assign over its own collection under
// the decomposition the shard announces, and loads the result only when it
// hashes to the shard's fingerprint.  A refused announcement is derived and
// logged once, not on every probe tick.
func (rt *Router) maybeLoadTopology() {
	topo := rt.topo.Load()
	var sh *ShardHealth
	from := -1
	for i, st := range rt.shards {
		a := st.announced.Load()
		switch {
		case a == nil:
		case topo != nil && a.Fingerprint == topo.fingerprint:
			return // a shard still serves the loaded topology
		case sh == nil:
			sh, from = a, i
		case topo != nil && a.Fingerprint != sh.Fingerprint:
			return // the shards have not agreed on a new one yet
		}
	}
	if sh == nil {
		return
	}
	ann := announcement{sh.Fingerprint, sh.Decomposition}
	if ann == rt.refused {
		return
	}
	metaOf, metas, err := deriveAssignment(rt.coll, sh)
	if err != nil {
		rt.refused = ann
		if rt.cfg.Logger != nil {
			rt.cfg.Logger.Printf("topology from shard %d refused: %v", from, err)
		}
		return
	}
	rt.refused = announcement{}
	owner := make([]int32, metas)
	for mi := range owner {
		owner[mi] = int32(rt.ring.Owner(int32(mi)))
	}
	rt.topo.Store(&topology{
		metaOf:      metaOf,
		owner:       owner,
		fingerprint: sh.Fingerprint,
		loadedFrom:  from,
	})
	if rt.cfg.Logger != nil {
		rt.cfg.Logger.Printf("topology loaded from shard %d: %d meta documents, fingerprint %s",
			from, metas, sh.Fingerprint)
	}
}

// deriveAssignment derives the assignment sh.Decomposition makes of coll and
// checks it against sh.Fingerprint: a kind flix does not know, or a fingerprint the
// settings do not produce on this collection — another collection, or
// settings that are not the shard's — is an error.
func deriveAssignment(coll *xmlgraph.Collection, sh *ShardHealth) (metaOf []int32, metas int, err error) {
	d := sh.Decomposition
	kind, err := flix.ParseConfigKind(d.Kind)
	if err != nil {
		return nil, 0, err
	}
	metaOf, metas, err = flix.Assign(coll, flix.Config{Kind: kind, PartitionSize: d.PartitionSize, MinTreeDocs: d.MinTreeDocs})
	if err != nil {
		return nil, 0, err
	}
	if fp := flix.Fingerprint(metaOf, metas); fp != sh.Fingerprint {
		return nil, 0, fmt.Errorf("%s/%d/%d assigns this collection fingerprint %s, not the announced %s",
			d.Kind, d.PartitionSize, d.MinTreeDocs, fp, sh.Fingerprint)
	}
	return metaOf, metas, nil
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
