package flix

import (
	"container/list"
	"sort"
	"sync"

	"repro/internal/xmlgraph"
)

// QueryCache memoizes descendants queries — the "caching results of
// frequent (sub-)queries" optimization of §7.  It wraps an Index with a
// bounded LRU keyed by (start element, tag); hits replay the stored result
// stream, misses evaluate and (when the evaluation ran to completion)
// store it.
//
// Only complete, untruncated evaluations are cached: a stream the client
// cancelled or bounded with MaxResults/MaxDist is not a valid answer for
// the next caller.  Replays honor the caller's Options by truncating the
// stored stream.  A QueryCache is safe for concurrent use.
type QueryCache struct {
	ix  *Index
	cap int

	// StoreBounded makes a miss with client-imposed bounds (MaxResults,
	// MaxDist) evaluate the query *unbounded*, store the complete stream,
	// and then replay it through the caller's Options.
	// Repeated top-k queries — the typical server workload — then hit the
	// cache, at the cost of the first evaluation materializing the full
	// result set.  Off by default to preserve the library's streaming
	// early-termination behavior.
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

type cacheEntry struct {
	key     cacheKey
	results []Result
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
	key := cacheKey{start: start, tag: tag}
	if results, ok := c.lookup(key); ok {
		if opts.Tracer != nil {
			opts.Tracer.CacheHit()
		}
		replay(results, opts, fn)
		return
	}
	if opts.Tracer != nil {
		opts.Tracer.CacheMiss()
	}
	// Cache only evaluations that run to completion without
	// client-imposed truncation.  Every storing evaluation runs with
	// IncludeSelf, so the stored stream serves either policy; replay and
	// the pass-through emit below apply the caller's.
	cacheable := opts.MaxResults == 0 && opts.MaxDist == 0
	if !cacheable {
		if !c.StoreBounded {
			c.ix.Descendants(start, tag, opts, fn)
			return
		}
		// StoreBounded: evaluate unbounded (still honoring cancellation
		// and tracing), store the complete stream, replay it under the
		// caller's bounds.
		full := Options{IncludeSelf: true, ExactOrder: opts.ExactOrder, Cancel: opts.Cancel, Tracer: opts.Tracer}
		var results []Result
		c.ix.Descendants(start, tag, full, func(r Result) bool {
			results = append(results, r)
			return true
		})
		if !canceled(opts.Cancel) {
			c.store(key, results)
		}
		replay(results, opts, fn)
		return
	}
	var results []Result
	complete := true
	self := opts.IncludeSelf
	opts.IncludeSelf = true
	c.ix.Descendants(start, tag, opts, func(r Result) bool {
		results = append(results, r)
		if (r.Dist != 0 || self) && !fn(r) {
			complete = false
			return false
		}
		return true
	})
	// A cancellation stops the priority-queue loop without fn ever
	// returning false; such a truncated stream must not be stored.
	if canceled(opts.Cancel) {
		complete = false
	}
	if complete {
		c.store(key, results)
	}
}

// replay feeds stored results through the caller's options.  Stored streams
// are in the (approximate) order their evaluation produced; ExactOrder
// callers get a sorted copy, which is exact because the stream is complete.
func replay(results []Result, opts Options, fn Emit) {
	if opts.ExactOrder && !sortedByDist(results) {
		sorted := make([]Result, len(results))
		copy(sorted, results)
		sortResults(sorted)
		results = sorted
	}
	emitted := 0
	for _, r := range results {
		if opts.MaxDist > 0 && r.Dist > opts.MaxDist {
			continue
		}
		if r.Dist == 0 && !opts.IncludeSelf {
			continue
		}
		if !fn(r) {
			return
		}
		emitted++
		if opts.MaxResults > 0 && emitted >= opts.MaxResults {
			return
		}
	}
}

func (c *QueryCache) lookup(key cacheKey) ([]Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byK[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).results, true
}

func (c *QueryCache) store(key cacheKey, results []Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byK[key]; ok {
		el.Value.(*cacheEntry).results = results
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.byK, last.Value.(*cacheEntry).key)
	}
	c.byK[key] = c.lru.PushFront(&cacheEntry{key: key, results: results})
}

// storeCold stores a warmed stream at the LRU tail, behind every entry live
// traffic has stored, and only while there is room: a warmed entry never
// evicts and never outranks a live one, and a key already cached keeps the
// entry it has.  It reports whether it stored.
func (c *QueryCache) storeCold(key cacheKey, results []Result) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byK[key]; ok || c.lru.Len() >= c.cap {
		return false
	}
	c.byK[key] = c.lru.PushBack(&cacheEntry{key: key, results: results})
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

// sortResults orders results by ascending (dist, node).
func sortResults(results []Result) {
	sort.Slice(results, func(i, j int) bool {
		if results[i].Dist != results[j].Dist {
			return results[i].Dist < results[j].Dist
		}
		return results[i].Node < results[j].Node
	})
}

// HotKey identifies one cached query for cross-cache warming.
type HotKey struct {
	Start xmlgraph.NodeID
	Tag   string
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
		k := el.Value.(*cacheEntry).key
		keys = append(keys, HotKey{Start: k.start, Tag: k.tag})
	}
	return keys
}

// Warm takes over an inherited working set while the cache is already
// serving: it walks keys in order — hottest first, so the head of the
// distribution is cached within the first few evaluations — evaluates each
// to completion on the wrapped index and stores the stream cold (storeCold).
// Hottest first with tail insertion leaves a quiet cache ordered exactly
// like the source of the keys.  A key live traffic has cached meanwhile is
// skipped unevaluated.  each is called after every key dealt with, saying
// whether its stream was stored.  The sweep ends when the keys run out, when
// the cache is full (what is left is colder than everything in it; nil is
// returned) or when cancel closes: the evaluation under way is cut short,
// nothing is stored from then on, and the keys not dealt with are returned
// for the caller to hand on.
func (c *QueryCache) Warm(keys []HotKey, cancel <-chan struct{}, each func(stored bool)) []HotKey {
	for i, key := range keys {
		if c.Len() >= c.cap {
			return nil
		}
		stored := false
		if !c.Contains(key.Start, key.Tag) {
			var results []Result
			c.ix.Descendants(key.Start, key.Tag, Options{IncludeSelf: true, Cancel: cancel}, func(r Result) bool {
				results = append(results, r)
				return true
			})
			if canceled(cancel) {
				return keys[i:]
			}
			stored = c.storeCold(cacheKey{start: key.Start, tag: key.Tag}, results)
		}
		each(stored)
	}
	return nil
}

// Contains reports whether a complete stream for (start, tag) is cached,
// without promoting the entry in the LRU or counting a hit or miss.  Batch
// handlers use it to order work — answer cached queries first — before the
// real lookups happen; a peek must therefore leave every counter and the
// eviction order exactly as it found them.
func (c *QueryCache) Contains(start xmlgraph.NodeID, tag string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byK[cacheKey{start: start, tag: tag}]
	return ok
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
