package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/flix"
	"repro/internal/front"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/xmlgraph"
)

// Config tunes the serving layer.  The zero value is usable; New fills in
// the defaults below.
type Config struct {
	// MaxInFlight bounds the number of concurrently evaluating queries;
	// requests beyond it are shed with 429.  Default 64.
	MaxInFlight int
	// DefaultTimeout is the per-request deadline when the client does not
	// pass ?timeout=.  Default 2s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines.  Default 30s.
	MaxTimeout time.Duration
	// DefaultLimit is the result limit when the client does not pass ?k=.
	// Default 100.
	DefaultLimit int
	// MaxLimit clamps client-requested result limits.  Default 10000.
	MaxLimit int
	// MaxBatch caps the number of queries in one POST /v1/batch request.
	// Default 256.
	MaxBatch int
	// CacheSize is the QueryCache capacity fronting /v1/descendants
	// (number of distinct cached queries).  Default 1024; negative
	// disables the cache.
	CacheSize int
	// Logger receives one access-log line per request and the slow-query
	// log.  Nil disables both.
	Logger *log.Logger
	// SlowQueryThreshold enables the slow-query log: sampled query
	// requests that evaluate longer than this are logged with their full
	// trace summary.  0 disables.
	SlowQueryThreshold time.Duration
	// SlowQuerySample traces 1 in N admitted query requests for the
	// slow-query log (1 = trace every request).  Sampling keeps the
	// tracing overhead off most requests while still catching recurring
	// offenders.  Default 1.
	SlowQuerySample int
	// Shard, when non-nil, runs the server as one shard of a
	// scatter-gather cluster: /v1/shard/eval is registered, /healthz
	// reports the shard's ring position and decomposition (fingerprint
	// and settings), and each generation carries the ownership mask the
	// ring assigns to this shard.
	Shard *ShardConfig
}

// withDefaults fills in what the server itself reads; the request limits
// take their defaults in front.New.
func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.SlowQuerySample <= 0 {
		c.SlowQuerySample = 1
	}
	return c
}

// generation is one immutable serving epoch: an index, the query cache
// fronting it, and the per-strategy latency histograms for the strategies
// present in that index.  A live reindex installs a complete new generation
// with a single atomic pointer store; requests capture the pointer once at
// admission, so an in-flight query finishes entirely on the generation it
// started on while new arrivals already see the next one.  The cache is
// part of the generation, and a new index serves results memoized on an
// old one only when both were opened from byte-identical snapshot images
// over one shared decomposition: an index is a deterministic function of
// those, so the new index would evaluate every result alike
// (QueryCache.Inherit).  Otherwise every result is evaluated afresh.
type generation struct {
	num          uint64
	ix           *flix.Index
	cache        *flix.QueryCache
	stratLatency map[string]*obs.Histogram
	installed    time.Time
	reason       string
	// shard is the per-generation shard state (ownership mask,
	// decomposition fingerprint); nil outside shard mode.
	shard *shardGen

	// retired is closed by the Install that supersedes this generation.
	// The warmer evaluates under it (Options.Cancel), so it stops
	// mid-evaluation and stores nothing into a retired cache.
	retired chan struct{}
	// warmDone is closed when the warmer has exited (by Install itself when
	// there is nothing to inherit); warmRest, the inherited keys it did not
	// get to, is final from then on and goes to the successor.
	warmDone chan struct{}
	warmRest []flix.HotKey
	// inherited counts the entries the warmer carried over from the
	// predecessor's cache unevaluated, warmed the streams it has evaluated
	// and stored so far, warmPending the keys it has yet to deal with.
	inherited, warmed, warmPending atomic.Int64
}

// warming reports whether the generation's warmer is still running.
func (g *generation) warming() bool {
	select {
	case <-g.warmDone:
		return false
	default:
		return true
	}
}

// warm is the generation's warmer, one finite goroutine: it takes over the
// working set of old.  When g's index answers every query exactly as old's
// (QueryCache.Inherit: byte-identical snapshots), it carries old's entries
// over, evaluating nothing.  Otherwise it evaluates old's cache keys,
// hottest first.  Either way it then evaluates whatever old's own warmer was
// stopped short of — so that swaps arriving faster than a warmer finishes do
// not shrink the working set to what one warmer managed — all of it cut to
// the room left, behind live traffic until done or retired, each key as far
// as its entry reached.  A query in old's cache and in that rest is taken
// once, with the reach old's cache gives it.  It waits for old's warmer
// first, so warmers evaluate one at a time and old.warmRest is final.  The
// goroutine keeps g, and through it a mapped index, reachable for as long as
// it reads it.
func (g *generation) warm(old *generation, capacity int) {
	defer close(g.warmDone)
	<-old.warmDone
	type query struct {
		start xmlgraph.NodeID
		tag   string
	}
	hot := old.cache.HotKeys(0)
	inherited := g.cache.Inherit(old.cache)
	g.inherited.Store(int64(inherited))
	var keys []flix.HotKey
	if inherited == 0 {
		keys = hot
	}
	seen := make(map[query]bool, len(hot))
	for _, k := range hot {
		seen[query{k.Start, k.Tag}] = true
	}
	for _, k := range old.warmRest {
		if !seen[query{k.Start, k.Tag}] {
			keys = append(keys, k)
		}
	}
	keys = keys[:min(len(keys), capacity-inherited)]
	g.warmPending.Store(int64(len(keys)))
	g.warmRest = g.cache.Warm(keys, g.retired, func(stored bool) {
		g.warmPending.Add(-1)
		if stored {
			g.warmed.Add(1)
		}
	})
	g.warmPending.Store(int64(len(g.warmRest)))
}

// Server serves a FliX index that can be hot-swapped under live traffic.
type Server struct {
	coll *xmlgraph.Collection
	onto *ontology.Ontology
	cfg  Config

	// gen is the current serving generation; nil until the first Install
	// (readiness: /healthz and the query endpoints answer 503 meanwhile).
	gen       atomic.Pointer[generation]
	genSeq    atomic.Uint64
	swaps     atomic.Int64
	installNs atomic.Int64 // duration of the last Install call: publish latency, warming excluded
	reindexer atomic.Pointer[reindexerBox]

	// front is the server's HTTP handler: the public query API of
	// internal/front plus the endpoints NewPending mounts on it.
	front   *front.Front
	started time.Time

	// ring is the cluster's consistent-hash ring; nil outside shard mode.
	ring *shard.Ring

	// Serving counters the front does not keep (engine-level counters live
	// in the generation's Index.Stats()).
	tracedEvals atomic.Int64
	slowQueries atomic.Int64
	// slowSeq counts admitted requests for slow-query trace sampling.
	slowSeq atomic.Uint64
}

// New wraps a built index as generation 1.  cfg zero-value fields take the
// documented defaults.
func New(ix *flix.Index, cfg Config) *Server {
	s := NewPending(ix.Collection(), cfg)
	s.Install(ix, "initial index")
	return s
}

// NewPending returns a server with no index yet: /healthz reports 503 and
// the query endpoints shed with 503 until Install delivers the first
// generation.  It lets flixd bind its port and expose health immediately
// while the initial build runs in the background.
func NewPending(coll *xmlgraph.Collection, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{coll: coll, cfg: cfg, started: time.Now()}
	s.front = front.New(coll, front.Config{
		Who:            "server",
		MetricPrefix:   "flix",
		MaxInFlight:    cfg.MaxInFlight,
		DefaultTimeout: cfg.DefaultTimeout,
		MaxTimeout:     cfg.MaxTimeout,
		DefaultLimit:   cfg.DefaultLimit,
		MaxLimit:       cfg.MaxLimit,
		MaxBatch:       cfg.MaxBatch,
		Logger:         cfg.Logger,
	}, (*nodeTier)(s))
	s.front.Handle("/healthz", s.handleHealthz)
	s.front.Handle("/statsz", s.handleStatsz)
	s.front.Handle("/metrics", s.handleMetrics)
	s.front.Handle("/v1/admin/reindex", s.handleReindex)
	if cfg.Shard != nil {
		if cfg.Shard.Count < 1 || cfg.Shard.ID < 0 || cfg.Shard.ID >= cfg.Shard.Count {
			panic(fmt.Sprintf("server: shard %d of %d is not a valid ring position", cfg.Shard.ID, cfg.Shard.Count))
		}
		s.ring = shard.NewRing(cfg.Shard.Count, shard.DefaultVNodes)
		// /v1/shard/eval goes through the same semaphore as the public
		// endpoints, so a saturated shard sheds router batches with 429 —
		// the router's retry/backpressure signal.
		s.front.Admit("/v1/shard/eval", "shard_eval", "shard", s.shardGate, false, s.handleShardEval)
	}
	return s
}

// Install atomically hot-swaps in a new index and returns its generation
// number.  The index must be built over the server's collection.  In-flight
// queries keep the generation they were admitted under; the new generation
// starts with a fresh query cache and fresh per-strategy histograms.
//
// Install publishes first and warms behind: it evaluates no query on the
// caller's goroutine.  The new generation is live when Install returns, and
// its warmer (generation.warm) then takes over the outgoing cache's working
// set in the background, so post-swap clients of the hot head find it cached
// within milliseconds instead of every swap paying for the whole hot set
// before going live.  /statsz and /metrics show both events.
//
// The server reads ix for as long as the generation serves, any request
// admitted under it runs, or its warmer evaluates — past the next Install.
// A snapshot-backed index is unmapped by its finalizer once all of those
// have let go; a caller that Closes an index it has handed to Install is in
// error.
func (s *Server) Install(ix *flix.Index, reason string) uint64 {
	if ix.Collection() != s.coll {
		panic("server: Install with an index built over a different collection")
	}
	g := &generation{
		num:          s.genSeq.Add(1),
		ix:           ix,
		stratLatency: make(map[string]*obs.Histogram),
		installed:    time.Now(),
		reason:       reason,
		retired:      make(chan struct{}),
		warmDone:     make(chan struct{}),
	}
	for name := range ix.StrategyCounts() {
		g.stratLatency[name] = new(obs.Histogram)
	}
	s.initShard(g)
	if s.cfg.CacheSize > 0 {
		g.cache = ix.NewQueryCache(s.cfg.CacheSize)
		g.cache.StoreBounded = true
	}
	old := s.gen.Swap(g)
	if old != nil {
		close(old.retired)
		s.swaps.Add(1)
	}
	if old != nil && g.cache != nil {
		go g.warm(old, s.cfg.CacheSize)
	} else {
		close(g.warmDone)
	}
	s.installNs.Store(int64(time.Since(g.installed)))
	return g.num
}

// CurrentIndex returns the serving index, or nil before the first Install.
// Together with Generation, StrategyLatency and Install it forms the
// rebuild.Target surface the background re-optimizer works against.
func (s *Server) CurrentIndex() *flix.Index {
	if g := s.gen.Load(); g != nil {
		return g.ix
	}
	return nil
}

// Generation returns the current generation number (0 before the first
// Install).
func (s *Server) Generation() uint64 {
	if g := s.gen.Load(); g != nil {
		return g.num
	}
	return 0
}

// StrategyLatency snapshots the current generation's per-strategy latency
// histograms — the signal the re-optimizer uses to derive strategy
// overrides.
func (s *Server) StrategyLatency() map[string]obs.HistSnapshot {
	g := s.gen.Load()
	if g == nil {
		return nil
	}
	out := make(map[string]obs.HistSnapshot, len(g.stratLatency))
	for name, h := range g.stratLatency {
		out[name] = h.Snapshot()
	}
	return out
}

// reindexerBox wraps the Reindexer interface value so it can sit behind an
// atomic pointer: flixd installs it after the handler is already serving.
type reindexerBox struct{ r Reindexer }

// SetReindexer installs the background re-optimizer driving
// POST /v1/admin/reindex.  Safe to call while the handler is serving.
func (s *Server) SetReindexer(r Reindexer) { s.reindexer.Store(&reindexerBox{r: r}) }

// getReindexer returns the installed re-optimizer, or nil.
func (s *Server) getReindexer() Reindexer {
	if b := s.reindexer.Load(); b != nil {
		return b.r
	}
	return nil
}

// SetOntology installs the tag-similarity ontology used by /v1/query for
// ~tag expansion.  Must be called before Handler.
func (s *Server) SetOntology(o *ontology.Ontology) { s.onto = o }

// InFlight returns the number of queries currently evaluating.
func (s *Server) InFlight() int { return s.front.InFlight() }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.front }

// nodeTier is the Server as the front sees it.
type nodeTier Server

// Gate is the readiness gate: before the first generation is installed
// there is nothing to query.
func (t *nodeTier) Gate() (int, string) {
	if t.gen.Load() == nil {
		return http.StatusServiceUnavailable, "index not ready: initial build in flight"
	}
	return 0, ""
}

// Open captures the serving generation for one admitted request, so the
// request finishes entirely on the generation it started on, and starts
// its trace when the client asked for one or the slow-query sampler picked
// the request.
func (t *nodeTier) Open(ctx context.Context, req front.Request) front.Backend {
	s := (*Server)(t)
	b := &session{s: s, g: s.gen.Load(), ctx: ctx, req: req}
	if req.Trace || s.sampleSlow() {
		b.trace = obs.NewTrace(obs.DefaultEventLimit)
		b.trace.SetGeneration(b.g.num)
	}
	return b
}

// session is one admitted request on one generation.
type session struct {
	s        *Server
	g        *generation
	ctx      context.Context
	req      front.Request
	trace    *obs.Trace // non-nil when traced (?trace=1 or slow-query sample)
	strategy string     // indexing strategy of the start node's meta document
	cut      bool       // the deadline passed during the last Descendants scan
}

// attribute files a single-query request under the indexing strategy that
// serves its start node; a batch spans many start nodes and is attributed
// to none.
func (b *session) attribute(start xmlgraph.NodeID) {
	if b.req.Endpoint != "batch" {
		b.strategy = b.g.ix.StrategyAt(start)
	}
}

func (b *session) Descendants(start xmlgraph.NodeID, tag string, opts flix.Options, fn flix.Emit) {
	b.attribute(start)
	opts.Tracer = b.trace
	if b.g.cache != nil {
		b.g.cache.Descendants(start, tag, opts, fn)
	} else {
		b.g.ix.Descendants(start, tag, opts, fn)
	}
	// A deadline that expired mid-scan cut the priority-queue loop short;
	// the results are then a sound prefix.
	b.cut = front.Expired(b.ctx)
}

func (b *session) Connected(from, to xmlgraph.NodeID, opts flix.Options) (int32, bool) {
	b.attribute(from)
	opts.Tracer = b.trace
	return b.g.ix.ConnectedOpts(from, to, opts)
}

// Evaluator runs ranked queries on the index itself, not through the query
// cache: its //-step scans are resumable probes the cache cannot replay.
func (b *session) Evaluator() *query.Evaluator {
	return &query.Evaluator{Index: b.g.ix, Ontology: b.s.onto, Cancel: b.ctx.Done(), Tracer: b.trace}
}

func (b *session) Locate(start xmlgraph.NodeID, tag string, opts flix.Options) (int32, bool) {
	return b.g.ix.MetaOf(start), b.g.cache != nil && b.g.cache.Contains(start, tag, opts)
}

func (b *session) TakePartial() bool {
	cut := b.cut
	b.cut = false
	return cut
}

func (b *session) Finish(w http.ResponseWriter, reply *front.Reply, results int, ev *query.Evaluator) {
	reply.Generation, reply.Has = b.g.num, front.HasGeneration
	if ev != nil {
		reply.Truncated = ev.Stats.Truncated
		reply.Has |= front.HasTruncated
	}
	if b.req.Trace {
		reply.Trace = b.trace.Summary(true)
	}
}

func (b *session) FinishBatch(w http.ResponseWriter, reply *front.Reply) {
	reply.Generation = b.g.num
}

// Done records the finished request into the generation's per-strategy
// latency histogram and, past the threshold, the slow-query log.
func (b *session) Done(elapsed time.Duration) {
	s := b.s
	if h := b.g.stratLatency[b.strategy]; h != nil {
		h.Observe(elapsed)
	}
	if s.cfg.SlowQueryThreshold > 0 && elapsed >= s.cfg.SlowQueryThreshold {
		s.slowQueries.Add(1)
		if b.trace != nil && s.cfg.Logger != nil {
			sum, err := json.Marshal(b.trace.Summary(false))
			if err != nil {
				sum = []byte("{}")
			}
			s.cfg.Logger.Printf("slow-query id=%s endpoint=%s strategy=%s elapsed=%s trace=%s",
				b.req.ID, b.req.Endpoint, b.strategy, elapsed.Round(time.Microsecond), sum)
		}
	}
}

// sampleSlow reports whether this admitted request should carry a trace for
// the slow-query log: 1 in SlowQuerySample requests while a threshold is
// configured.
func (s *Server) sampleSlow() bool {
	if s.cfg.SlowQueryThreshold <= 0 {
		return false
	}
	return s.slowSeq.Add(1)%uint64(s.cfg.SlowQuerySample) == 0
}

// handleHealthz reports readiness, not just liveness: before the first
// index generation is installed the process is alive but cannot answer a
// single query, and a load balancer must not send it traffic — hence 503
// until Install delivers generation 1.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g := s.gen.Load()
	if g == nil {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		front.OK(w, map[string]any{
			"status":      "starting",
			"ready":       false,
			"inFlight":    s.InFlight(),
			"maxInFlight": s.front.MaxInFlight(),
			"uptime":      time.Since(s.started).Round(time.Millisecond).String(),
		})
		return
	}
	body := map[string]any{
		"status":      "ok",
		"ready":       true,
		"generation":  g.num,
		"swaps":       s.swaps.Load(),
		"inFlight":    s.InFlight(),
		"maxInFlight": s.front.MaxInFlight(),
		"uptime":      time.Since(s.started).Round(time.Millisecond).String(),
	}
	// In shard mode the router's prober reads the ring position and the
	// decomposition from here on every probe.
	if s.cfg.Shard != nil && g.shard != nil {
		body["shard"] = &shard.ShardHealth{
			ID:            s.cfg.Shard.ID,
			Count:         s.cfg.Shard.Count,
			Fingerprint:   g.shard.fingerprint,
			Decomposition: shard.DecompositionOf(g.ix.Config()),
		}
	}
	front.OK(w, body)
}

// handleStatsz reports the engine's query-load statistics, the §7
// self-tuning advice for the live load, cache effectiveness and the
// serving-layer counters in one JSON document.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	g := s.gen.Load()
	if g == nil {
		front.OK(w, map[string]any{
			"ready": false,
			"server": map[string]any{
				"notReady": s.front.NotReady.Load(),
				"uptime":   time.Since(s.started).Round(time.Millisecond).String(),
			},
		})
		return
	}
	snap := g.ix.Stats().Snapshot()
	advice := g.ix.Advise()
	si := g.ix.StorageInfo()
	resp := map[string]any{
		"generation": map[string]any{
			"current":          g.num,
			"installedAt":      g.installed.Format(time.RFC3339Nano),
			"reason":           g.reason,
			"swaps":            s.swaps.Load(),
			"inheritedQueries": g.inherited.Load(),
			"warmedQueries":    g.warmed.Load(),
			"warming":          g.warming(),
			"warmPending":      g.warmPending.Load(),
		},
		"index": map[string]any{
			"config":        g.ix.Config().Kind.String(),
			"metaDocuments": g.ix.NumMetaDocuments(),
			"runtimeLinks":  g.ix.RuntimeLinks(),
			"strategies":    g.ix.StrategyCounts(),
			"storage":       storageJSON(si),
		},
		"queryStats": map[string]any{
			"queries":          snap.Queries,
			"pops":             snap.Pops,
			"entries":          snap.Entries,
			"dupDropped":       snap.DupDropped,
			"staleDropped":     snap.StaleDropped,
			"linkHops":         snap.LinkHops,
			"results":          snap.Results,
			"entriesPerQuery":  snap.EntriesPerQuery(),
			"linkHopsPerQuery": snap.LinkHopsPerQuery(),
			"dupDropRatio":     snap.DupDropRatio(),
		},
		"textDicts": textDictsJSON(s.coll),
		"latency":   s.latencyJSON(g),
		"build":     buildJSON(g.ix, si),
		"advice": map[string]any{
			"rebuild": advice.Rebuild,
			"reason":  advice.Reason,
		},
		"server": map[string]any{
			"inFlight":     s.InFlight(),
			"maxInFlight":  s.front.MaxInFlight(),
			"shed":         s.front.Shed.Load(),
			"notReady":     s.front.NotReady.Load(),
			"timeouts":     s.front.Timeouts.Load(),
			"clientErrors": s.front.ClientErrors.Load(),
			"slowQueries":  s.slowQueries.Load(),
			"requests": map[string]int64{
				"descendants": s.front.Requests("descendants"),
				"connected":   s.front.Requests("connected"),
				"query":       s.front.Requests("query"),
				"batch":       s.front.Requests("batch"),
			},
		},
	}
	if advice.Rebuild {
		resp["advice"].(map[string]any)["config"] = map[string]any{
			"kind":          advice.Config.Kind.String(),
			"partitionSize": advice.Config.PartitionSize,
		}
	}
	if rx := s.getReindexer(); rx != nil {
		resp["reindex"] = rx.Status()
	}
	if sh := s.shardStatsz(g); sh != nil {
		resp["shard"] = sh
	}
	if g.cache != nil {
		hits, misses := g.cache.Counts()
		resp["cache"] = map[string]any{
			"entries": g.cache.Len(),
			"hits":    hits,
			"misses":  misses,
			"hitRate": g.cache.HitRate(),
		}
	}
	front.OK(w, resp)
}

// storageJSON renders how the serving index is backed — "heap" for a
// built generation, "v2" for one opened from a snapshot, with the mapping
// size when the container is served via mmap (the whole file: its HOPI
// sections were decoded into the heap at open and are not read through the
// mapping) and a per-section-kind byte breakdown (with compression ratios)
// for snapshot-backed generations.
func storageJSON(si flix.StorageInfo) map[string]any {
	out := map[string]any{"format": si.Format, "mapped": si.Mapped}
	if si.Mapped {
		out["mappedBytes"] = si.MappedBytes
	}
	if si.SizeBytes > 0 {
		out["sizeBytes"] = si.SizeBytes
	}
	if si.Sections != nil {
		out["compressed"] = si.Compressed
		secs := make([]map[string]any, 0, len(si.Sections))
		for _, st := range si.Sections {
			sec := map[string]any{
				"kind":     st.Kind,
				"sections": st.Sections,
				"bytes":    st.Bytes,
			}
			if st.RawBytes > 0 {
				sec["rawBytes"] = st.RawBytes
				sec["ratio"] = math.Round(st.Ratio*100) / 100
			}
			secs = append(secs, sec)
		}
		out["sections"] = secs
	}
	return out
}

// textDictsJSON lists the text dictionaries predicate queries have built on
// the collection so far — they are lazy, one per element name, and outlive
// index generations — with what each holds and what its first use cost.
func textDictsJSON(coll *xmlgraph.Collection) []map[string]any {
	out := []map[string]any{}
	for _, st := range coll.TextDictStats() {
		out = append(out, map[string]any{
			"tag":      st.Tag,
			"tokens":   st.Tokens,
			"postings": st.Postings,
			"bytes":    st.Bytes,
			"buildMs":  math.Round(st.Build.Seconds()*1e5) / 100,
		})
	}
	return out
}

// latencyJSON summarizes the per-endpoint and the generation's per-strategy
// latency histograms for /statsz.
func (s *Server) latencyJSON(g *generation) map[string]any {
	summ := func(hs map[string]*obs.Histogram) map[string]any {
		out := make(map[string]any, len(hs))
		for name, h := range hs {
			sn := h.Snapshot()
			if sn.Count == 0 {
				continue
			}
			out[name] = map[string]any{
				"count": sn.Count,
				"mean":  sn.Mean().Round(time.Microsecond).String(),
				"p50":   sn.Quantile(0.50).Round(time.Microsecond).String(),
				"p95":   sn.Quantile(0.95).Round(time.Microsecond).String(),
				"p99":   sn.Quantile(0.99).Round(time.Microsecond).String(),
			}
		}
		return out
	}
	return map[string]any{
		"endpoints":  summ(s.front.Latency()),
		"strategies": summ(g.stratLatency),
	}
}

// buildJSON renders the build-phase timings for /statsz and, for a
// heap-built generation, the canonical stream's length (Table 1's size
// measure).  A snapshot-backed generation's size is its container's, which
// storageJSON already reports, so its build block carries no size.
func buildJSON(ix *flix.Index, si flix.StorageInfo) map[string]any {
	bs := ix.BuildStats()
	strategies := make(map[string]any, len(bs.Strategies))
	for name, sb := range bs.Strategies {
		strategies[name] = map[string]any{
			"metaDocuments": sb.Metas,
			"total":         sb.Total.Round(time.Microsecond).String(),
			"max":           sb.Max.Round(time.Microsecond).String(),
		}
	}
	workers := make([]map[string]any, 0, len(bs.Workers))
	for _, wb := range bs.Workers {
		workers = append(workers, map[string]any{
			"metaDocuments": wb.Metas,
			"busy":          wb.Busy.Round(time.Microsecond).String(),
		})
	}
	out := map[string]any{
		"partition":   bs.Partition.Round(time.Microsecond).String(),
		"metaBuild":   bs.MetaBuild.Round(time.Microsecond).String(),
		"select":      bs.Select.Round(time.Microsecond).String(),
		"indexBuild":  bs.IndexBuild.Round(time.Microsecond).String(),
		"parallelism": bs.Parallelism,
		"workers":     workers,
		"strategies":  strategies,
	}
	if si.Format == "heap" {
		if sz, err := ix.SizeBytes(); err == nil {
			out["sizeBytes"] = sz
		}
	}
	return out
}
