package flix

import (
	"container/list"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/pathindex"
	"repro/internal/xmlgraph"
)

// QueryCache memoizes descendants queries — the "caching results of
// frequent (sub-)queries" optimization of §7.  It wraps an Index with a
// bounded LRU keyed by (start element, tag).  An entry holds a prefix of the
// key's plain stream — every result, the start itself included, in the
// (approximate) order an evaluation without bounds emits them — and whether
// that prefix is the whole stream.  The evaluation is deterministic, so
// replaying a prefix under a caller's Options gives what replaying the whole
// stream would, as far as the prefix reaches: a request hits when the entry
// is complete, or when its replay reaches its MaxResults inside the prefix.
// An ExactOrder request hits complete entries only; replay sorts them.  A
// DupSeenSet request is evaluated on the index and neither looked up nor
// stored: an entry records the coverage rule's stream, and the seen-set
// rule answers differently from a start that lies on a cycle.
//
// A miss evaluates the plain stream, passes it to the caller as it arrives
// and stops as soon as the caller has its MaxResults — an ExactOrder miss
// runs it to completion and replays it sorted — then stores what it
// evaluated.  A store never shrinks an entry: complete beats a prefix, a
// longer prefix a shorter one.  A canceled evaluation is not stored.
//
// A cache over a replacement index starts from its predecessor's working
// set: Inherit carries every entry over when the new index answers every
// query exactly as the old one, and Warm re-evaluates the keys otherwise.
// A QueryCache is safe for concurrent use.
type QueryCache struct {
	ix  *Index
	cap int

	// StoreBounded caches the misses of requests with client-imposed bounds
	// (MaxResults, MaxDist) too, each as the prefix it evaluated, so repeated
	// top-k queries — the typical server workload — hit the cache.  Off by
	// default: such a miss then evaluates under the caller's Options and
	// stores nothing, the library's plain streaming behavior.
	StoreBounded bool

	mu  sync.Mutex
	lru *list.List // of *cacheEntry, front = most recent
	byK map[cacheKey]*list.Element

	hits, misses int64
}

type cacheKey struct {
	start xmlgraph.NodeID
	tag   string
}

// cacheEntry is immutable once stored; an upgrade replaces it, and a
// successor cache may share it (Inherit).
type cacheEntry struct {
	key      cacheKey
	results  []Result
	complete bool // results is the whole stream, not a prefix of it
	self     bool // results holds the start itself, the one result at distance 0
}

func newEntry(key cacheKey, results []Result, complete bool) *cacheEntry {
	return &cacheEntry{key: key, results: results, complete: complete,
		self: slices.ContainsFunc(results, func(r Result) bool { return r.Dist == 0 })}
}

// covers reports whether replaying e under opts answers the request: always
// when e is complete; for a prefix, when the replay reaches opts.MaxResults
// inside it; never under DupSeenSet, whose stream no entry holds.  Only a
// MaxDist bound makes it scan the prefix.
func (e *cacheEntry) covers(opts Options) bool {
	if opts.DupSeenSet {
		return false
	}
	if e.complete {
		return true
	}
	if opts.MaxResults <= 0 || opts.ExactOrder {
		return false
	}
	if opts.MaxDist <= 0 {
		n := len(e.results)
		if e.self && !opts.IncludeSelf {
			n--
		}
		return n >= opts.MaxResults
	}
	n := 0
	for _, r := range e.results {
		if admits(opts, r) {
			if n++; n == opts.MaxResults {
				return true
			}
		}
	}
	return false
}

// NewQueryCache wraps the index with an LRU of the given capacity (number
// of distinct cached queries, minimum 1).
func (ix *Index) NewQueryCache(capacity int) *QueryCache {
	if capacity < 1 {
		capacity = 1
	}
	return &QueryCache{
		ix:  ix,
		cap: capacity,
		lru: list.New(),
		byK: make(map[cacheKey]*list.Element),
	}
}

// Descendants behaves like Index.Descendants but consults the cache.
func (c *QueryCache) Descendants(start xmlgraph.NodeID, tag string, opts Options, fn Emit) {
	if opts.DupSeenSet {
		c.ix.Descendants(start, tag, opts, fn)
		return
	}
	key := cacheKey{start: start, tag: tag}
	if results, ok := c.lookup(key, opts); ok {
		if opts.Tracer != nil {
			opts.Tracer.CacheHit()
		}
		c.replay(results, opts, fn)
		return
	}
	if opts.Tracer != nil {
		opts.Tracer.CacheMiss()
	}
	if (opts.MaxResults != 0 || opts.MaxDist != 0) && !c.StoreBounded {
		c.ix.Descendants(start, tag, opts, fn)
		return
	}
	out := replayer{opts: opts, fn: fn}
	results, complete := c.evaluate(key, opts.Cancel, opts.Tracer, func(r Result) bool {
		return opts.ExactOrder || out.emit(r)
	})
	// A cancellation stops the priority-queue loop without more ever
	// returning false, so complete would claim a whole stream; a canceled
	// evaluation is not stored at all.
	if !canceled(opts.Cancel) {
		c.store(newEntry(key, results, complete))
	}
	if opts.ExactOrder {
		c.replay(results, opts, fn)
	}
}

// evaluate runs the plain stream of key — IncludeSelf, no bounds, the
// approximate order — collecting it until more returns false or the stream
// ends; complete reports the latter.
func (c *QueryCache) evaluate(key cacheKey, cancel <-chan struct{}, tr *obs.Trace, more func(Result) bool) (results []Result, complete bool) {
	complete = true
	c.ix.Descendants(key.start, key.tag, Options{IncludeSelf: true, Cancel: cancel, Tracer: tr}, func(r Result) bool {
		results = append(results, r)
		complete = more(r)
		return complete
	})
	return results, complete
}

// admits reports whether the caller's self policy and MaxDist let r through.
func admits(opts Options, r Result) bool {
	return (r.Dist != 0 || opts.IncludeSelf) && (opts.MaxDist <= 0 || r.Dist <= opts.MaxDist)
}

// replayer passes a plain stream on to a caller under the caller's Options.
type replayer struct {
	opts    Options
	fn      Emit
	emitted int
}

// emit offers r to the caller and reports whether the caller wants more:
// false once fn stops or the caller has its MaxResults.
func (p *replayer) emit(r Result) bool {
	if !admits(p.opts, r) {
		return true
	}
	if !p.fn(r) {
		return false
	}
	p.emitted++
	return p.opts.MaxResults <= 0 || p.emitted < p.opts.MaxResults
}

// replay feeds stored results through the caller's options.  Stored streams
// are in the (approximate) order their evaluation produced; ExactOrder
// callers get them sorted, which is exact because the stream is complete:
// packed into a pooled scratch's key buffer and emitted from there.
func (c *QueryCache) replay(results []Result, opts Options, fn Emit) {
	out := replayer{opts: opts, fn: fn}
	if opts.ExactOrder && !sortedByDist(results) {
		s := c.ix.getScratch()
		defer c.ix.putScratch(s)
		for _, r := range results {
			s.keys = append(s.keys, pathindex.PackDistNode(r.Dist, int32(r.Node)))
		}
		pathindex.SortDistNode(s.keys, &s.ktmp)
		for _, k := range s.keys {
			if !out.emit(Result{Node: xmlgraph.NodeID(k.Node()), Dist: k.Dist()}) {
				return
			}
		}
		return
	}
	for _, r := range results {
		if !out.emit(r) {
			return
		}
	}
}

// lookup returns the stored results when they answer a request under opts.
func (c *QueryCache) lookup(key cacheKey, opts Options) ([]Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byK[key]
	if !ok || !el.Value.(*cacheEntry).covers(opts) {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).results, true
}

func (c *QueryCache) store(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byK[e.key]; ok {
		if old := el.Value.(*cacheEntry); !old.complete && (e.complete || len(e.results) > len(old.results)) {
			el.Value = e
		}
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.byK, last.Value.(*cacheEntry).key)
	}
	c.byK[e.key] = c.lru.PushFront(e)
}

// storeCold stores a warmed entry at the LRU tail, behind every entry live
// traffic has stored, and only while there is room: a warmed entry never
// evicts and never outranks a live one, and a key already cached keeps the
// entry it has.  It reports whether it stored.
func (c *QueryCache) storeCold(e *cacheEntry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byK[e.key]; ok || c.lru.Len() >= c.cap {
		return false
	}
	c.byK[e.key] = c.lru.PushBack(e)
	return true
}

// sortedByDist reports whether results are already in ascending
// (dist, node) order, the common case for single-meta-document streams.
func sortedByDist(results []Result) bool {
	for i := 1; i < len(results); i++ {
		a, b := results[i-1], results[i]
		if a.Dist > b.Dist || (a.Dist == b.Dist && a.Node > b.Node) {
			return false
		}
	}
	return true
}

// HotKey identifies one cached query for cross-cache warming, with how far
// its entry reaches: Prefix is the length of the stored prefix, 0 when the
// entry is the complete stream.
type HotKey struct {
	Start  xmlgraph.NodeID
	Tag    string
	Prefix int
}

// HotKeys returns the keys of up to n cached queries (n <= 0 means all),
// most recently used first — the working set a replacement cache inherits,
// in the order Warm takes it.
func (c *QueryCache) HotKeys(n int) []HotKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 || n > c.lru.Len() {
		n = c.lru.Len()
	}
	keys := make([]HotKey, 0, n)
	for el := c.lru.Front(); el != nil && len(keys) < n; el = el.Next() {
		e := el.Value.(*cacheEntry)
		k := HotKey{Start: e.key.start, Tag: e.key.tag}
		if !e.complete {
			k.Prefix = len(e.results)
		}
		keys = append(keys, k)
	}
	return keys
}

// Inherit takes over the entries of old, the cache of the index c's
// replaces, while c is already serving, when c's index answers every query
// exactly as old's (Index.answersLike): it stores each entry cold
// (storeCold), most recently used first, sharing the immutable entry itself,
// and returns how many it stored.  Otherwise it stores nothing and returns
// 0, and the keys are Warm's to evaluate.  Nothing is evaluated either way.
func (c *QueryCache) Inherit(old *QueryCache) (inherited int) {
	if !c.ix.answersLike(old.ix) {
		return 0
	}
	old.mu.Lock()
	entries := make([]*cacheEntry, 0, old.lru.Len())
	for el := old.lru.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(*cacheEntry))
	}
	old.mu.Unlock()
	for _, e := range entries {
		if c.storeCold(e) {
			inherited++
		}
	}
	return inherited
}

// answersLike reports whether ix answers every query exactly as old does.
// That needs one decomposition — the shared Set of two generations over one
// collection and configuration (keepDecomposition) — and then either one
// index, or two opened from byte-identical snapshot images: an index is a
// deterministic function of its collection, its decomposition and the
// snapshot it opens.  A heap build is never compared.
func (ix *Index) answersLike(old *Index) bool {
	if old.set != ix.set {
		return false
	}
	return old == ix || (old.snap != nil && ix.snap != nil && old.snap.Equal(ix.snap))
}

// Warm takes over an inherited working set while the cache is already
// serving: it walks keys in order — hottest first, so the head of the
// distribution is cached within the first few evaluations — evaluates each
// on the wrapped index exactly as far as its Prefix says (to completion when
// 0), and stores the result cold (storeCold).  Hottest first with tail
// insertion leaves a quiet cache ordered exactly like the source of the keys.
// A key live traffic has cached meanwhile is skipped unevaluated.  each is
// called after every key dealt with, saying whether its entry was stored.
// The sweep ends when the keys run out, when the cache is full (what is left
// is colder than everything in it; nil is returned) or when cancel closes:
// the evaluation under way is cut short, nothing is stored from then on, and
// the keys not dealt with are returned for the caller to hand on.
func (c *QueryCache) Warm(keys []HotKey, cancel <-chan struct{}, each func(stored bool)) []HotKey {
	for i, hk := range keys {
		if c.Len() >= c.cap {
			return nil
		}
		key := cacheKey{start: hk.Start, tag: hk.Tag}
		stored := false
		if !c.has(key) {
			n := 0
			results, complete := c.evaluate(key, cancel, nil, func(Result) bool {
				n++
				return n != hk.Prefix
			})
			if canceled(cancel) {
				return keys[i:]
			}
			stored = c.storeCold(newEntry(key, results, complete))
		}
		each(stored)
	}
	return nil
}

// has reports whether key has an entry, however far it reaches.
func (c *QueryCache) has(key cacheKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byK[key]
	return ok
}

// Contains reports whether a request for start//tag under opts would be
// answered from the cache — its entry is complete, or the request's replay
// reaches its MaxResults inside the stored prefix — without promoting the
// entry in the LRU or counting a hit or miss.  Batch handlers use it to order
// work — answer cached queries first — before the real lookups happen; a
// peek must therefore leave every counter and the eviction order exactly as
// it found them.
func (c *QueryCache) Contains(start xmlgraph.NodeID, tag string, opts Options) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byK[cacheKey{start: start, tag: tag}]
	return ok && el.Value.(*cacheEntry).covers(opts)
}

// Counts returns the number of cache hits and misses so far.
func (c *QueryCache) Counts() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (c *QueryCache) HitRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Len returns the number of cached queries.
func (c *QueryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
