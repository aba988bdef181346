package flix

import (
	"math"
	"slices"
	"time"

	"repro/internal/lgraph"
	"repro/internal/meta"
	"repro/internal/obs"
	"repro/internal/pathindex"
	"repro/internal/xmlgraph"
)

// Result is one query answer: a node and the length of the path that
// produced it.  Distances within one meta document are exact; distances of
// paths crossing meta documents are lengths of actual paths found and thus
// upper bounds of the true shortest distance.
type Result struct {
	Node xmlgraph.NodeID
	Dist int32
}

// Options tunes query evaluation.
type Options struct {
	// MaxResults stops the query after that many results (0 = all).
	// This is the top-k early termination of §3.1.
	MaxResults int
	// MaxDist prunes paths longer than this many edges (0 = unlimited) —
	// the client-side relevance threshold of §5.2.
	MaxDist int32
	// ExactOrder buffers results so they are emitted in exactly ascending
	// distance order instead of the approximate per-meta-document blocks
	// of Figure 4 (a §7 "future work" optimization; costs latency).
	ExactOrder bool
	// IncludeSelf reports the start element itself at distance 0 when it
	// matches the query (the "-or-self" part of descendants-or-self).
	IncludeSelf bool
	// DupSeenSet switches duplicate elimination from the paper's
	// entry-point scheme (§5.1) to the "straightforward approach" the
	// paper rejects: remembering every returned result.  It exists for
	// the ablation benchmark; the entry-point scheme needs memory only
	// proportional to the visited meta documents, this one to the result
	// set.  The two schemes may differ on one corner: a start element
	// lying on a cycle is re-reported as its own descendant by the seen
	// set but suppressed by the entry-point scheme.
	DupSeenSet bool
	// Cancel aborts the evaluation when closed (typically a
	// context.Context's Done channel).  The priority-queue loop checks it
	// on every pop, so a canceled query stops promptly instead of
	// exhausting the frontier; results emitted before the cancellation
	// stand.  Nil means the query runs to completion.
	Cancel <-chan struct{}
	// Tracer, when non-nil, receives span-style events from the
	// evaluation: frontier pops with their distance bounds, entry-point
	// admissions and duplicate drops, per-meta-document index probes
	// labeled with the strategy, runtime link hops, result emissions and
	// cache hits/misses.  The nil fast path is a single pointer check per
	// event site, so an untraced query pays nothing.
	Tracer *obs.Trace
}

// canceled reports whether ch (a Done-style channel) has been closed.
func canceled(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Emit receives one result; returning false cancels the query (the "user
// decides to stop" case of §3.1).
type Emit func(Result) bool

// pqItem is one frontier element of the PEE's priority queue IE.
type pqItem struct {
	dist int32
	node xmlgraph.NodeID
}

// Descendants evaluates the path expression start//tag: all elements named
// tag reachable from start, streamed in approximately ascending distance
// order (§5.1, Figure 4).  An empty tag means the wildcard start//*.
func (ix *Index) Descendants(start xmlgraph.NodeID, tag string, opts Options, fn Emit) {
	s := ix.getScratch()
	s.queue(start, 0)
	ix.evaluate(s, tag, opts, fn)
}

// TypeDescendants evaluates A//B where only the element types are fixed
// (§5.2): every element named tagA is inserted at priority 0, then the
// regular evaluation runs.  Results may be descendants of several A
// elements; each is reported once with the smallest distance found.
func (ix *Index) TypeDescendants(tagA, tagB string, opts Options, fn Emit) {
	s := ix.getScratch()
	for _, n := range ix.coll.NodesByTag(tagA) {
		s.queue(n, 0)
	}
	ix.evaluate(s, tagB, opts, fn)
}

// evaluate is the streaming driver of the evaluator core: the caller loads
// the starts into s.f, the core runs the frontier dry, and results reach fn
// as they are found (or, under ExactOrder, as soon as no shorter path can
// still appear).
func (ix *Index) evaluate(s *evalScratch, tag string, opts Options, fn Emit) {
	defer ix.finish(s)
	r := ix.arm(s, tag, opts)
	r.fn = fn
	r.buffer = opts.ExactOrder
	r.run(math.MaxInt32)
	if opts.ExactOrder && !r.stopped {
		s.rbuf.flushThrough(math.MaxInt32, s.emitFn)
	}
}

// evalRun is the Path Expression Evaluator of Figure 4: one resumable
// priority-queue loop (run) over the three steps the figure names — admit a
// popped entry, probe its meta document's index, follow its runtime links —
// that every driver shares, on either axis.  It is embedded in the pooled
// evalScratch, so checking out a warm scratch re-arms a complete evaluator
// with zero allocation, and its callbacks — visit, linkVisit, emit — are
// methods bound once per scratch lifetime that read the popped entry's
// context from the per-pop fields.
//
// The drivers differ in four settings only:
//
//   - the axis: reverse (Ancestors, the backward half of
//     ConnectedBidirectional) walks the same loop against the edges — "the
//     same algorithm applies to ancestors" (§5.1);
//   - the band run is given: Descendants, TypeDescendants, Ancestors and
//     PartialDescendants run the frontier dry, Probe.Next pauses it at a
//     distance band and resumes later on the same scratch; the connection
//     tests of connect.go take the steps one entry at a time under their own
//     stop rule and put a distance test where the probe is;
//   - the result sink: streamed to fn, buffered in the (dist, node) queue
//     rbuf (ExactOrder and Probe), or min-merged per node (merge);
//   - the duplicate-elimination rule.  The default is the paper's §5.1
//     entry-point coverage: a popped element is dropped, and a probed result
//     skipped, when an earlier entry point of the same meta document reaches
//     it (on the reverse axis: is reached by it), and the forward follow step
//     skips the link sources below an earlier entry point (enter).  That is
//     sound only when one evaluation sees every entry of a meta document.
//     Options.DupSeenSet selects the identity rule instead — the first pop of a node carries its
//     minimum distance and is the only one expanded — which the ablation
//     benchmark compares against and which PartialDescendants needs: split
//     across shards and RPC rounds, coverage would suppress shorter
//     rediscoveries.
//
// Under both rules a node is queued only when it gets closer (evalScratch.
// queue): a copy at the distance of one already queued, or farther, would be
// dropped when it popped — under the identity rule because the nearer copy
// was expanded, under coverage because the nearer copy popped first and is
// now an entry point (Reachable is reflexive) or was covered, and coverage
// only grows.  So such copies are never pushed.  A node still pops twice when
// it was queued again nearer before its farther copy popped; admit drops that
// stale copy with one table lookup.
type evalRun struct {
	ix    *Index
	s     *evalScratch
	tag   string
	tagID int32 // tag as the collection numbers it, -1 when no element carries it
	opts  Options
	fn    Emit
	tr    *obs.Trace

	// reverse evaluates the ancestors axis: coverage asks whether the node
	// reaches the entry point, the probe streams what reaches the entry, and
	// follow walks the runtime links entering the meta document.
	reverse bool

	// buffer sends results to s.rbuf instead of fn.  merge selects the
	// PartialDescendants sink: results keep their minimum distance per node.
	// owned (merge only, nil = everything) diverts entries in foreign meta
	// documents to s.hops.
	buffer bool
	merge  bool
	owned  func(meta int32) bool

	// Per-pop context, set by admit and read by probe, follow, visit and
	// hop: the admitted entry's distance, meta document and local ID,
	// and the earlier entry points visit tests results against (enter).  rg
	// is the meta document's region encoding when its index has one and the
	// coverage rule is on, else nil; span is then the entry's region.
	dist   int32
	mi, le int32
	prev   []pathindex.Span
	md     *meta.MetaDocument
	idx    pathindex.Index
	rg     pathindex.Regioner
	span   pathindex.Span

	probeResults int
	emitted      int
	stopped      bool // the client stopped the stream, or the query was canceled
	truncated    bool // canceled before the frontier drained

	// Per-query stats deltas, flushed to the shared atomic counters once
	// at query end instead of contending on every pop.
	pops, entries, dupDropped, staleDropped, linkHops int64
}

// arm binds a checked-out scratch to one evaluation.
func (ix *Index) arm(s *evalScratch, tag string, opts Options) *evalRun {
	r := &s.run
	r.ix, r.tag, r.opts = ix, tag, opts
	r.tagID = ix.coll.TagIDOf(tag)
	r.tr = opts.Tracer // nil in the common case; every use is nil-checked
	return r
}

// finish folds the evaluation's counters into the index statistics and
// returns the scratch to the pool.
func (ix *Index) finish(s *evalScratch) {
	ix.stats.flushQuery(&s.run)
	ix.putScratch(s)
}

// run pops the frontier while its minimum distance is within band.  The
// priority queue IE holds intermediate elements ordered by the minimal
// distance any of their descendants can have.  Popping an element e, run
// (1) drops e when the duplicate-elimination rule says everything below it
// was already reported (admit); (2) streams e's matching descendants from the
// meta document's index into the sink (probe); (3) pushes the targets of e's
// reachable runtime links at priority dist(e) + dist(e, l) + 1 (follow).  On
// the reverse axis read "above", "ancestors" and "sources".
//
// Seeding and follow keep every frontier entry within MaxDist, so the loop
// needs no distance check of its own.  run may be called again with a larger
// band; the frontier, the entered table and the sink persist in the scratch.
func (r *evalRun) run(band int32) {
	s := r.s
	for s.f.Len() > 0 && s.f.minDist() <= band && !r.stopped {
		if canceled(r.opts.Cancel) {
			r.stopped, r.truncated = true, true
			s.f.reset()
			break
		}
		if !r.admit(s.f.pop()) {
			continue
		}
		if r.probe(); r.stopped {
			break
		}
		r.follow()
	}
}

// admit is step (1): it counts the pop and applies the duplicate-elimination
// rule.  It reports whether it is an entry to expand, and then has set the
// per-pop context.
func (r *evalRun) admit(it pqItem) bool {
	s, ix := r.s, r.ix
	r.pops++
	if r.tr != nil {
		r.tr.Pop(int64(it.node), it.dist)
	}
	mi := ix.set.MetaOf[it.node]
	if b, ok := s.best.Get(it.node); ok && b < it.dist {
		// A stale copy: the node was queued again nearer, and that copy
		// popped first.  A certain drop under either rule, not re-tested.
		r.staleDropped++
		return r.drop(mi, it)
	}
	if r.opts.ExactOrder {
		// Anything buffered below the new frontier minimum can
		// never be beaten; flush it in exact order.
		if !s.rbuf.flushThrough(it.dist-1, s.emitFn) {
			r.stopped = true
			return false
		}
	}
	le := ix.set.LocalOf[it.node]
	r.idx, r.rg = ix.pis[mi], nil

	var prev []pathindex.Span
	if r.opts.DupSeenSet {
		// Identity rule: this is the node's first pop, at its minimum
		// distance; results are deduplicated in visit.
		if r.owned != nil && !r.owned(mi) {
			s.hops = append(s.hops, it)
			return false
		}
	} else {
		var ok bool
		if prev, ok = r.enter(mi, le); !ok {
			return r.drop(mi, it) // descendants of e were already reported
		}
	}
	r.entries++
	if r.tr != nil {
		r.tr.Entry(mi, r.idx.Name(), int64(it.node), it.dist)
	}
	r.dist, r.mi, r.le, r.prev, r.md = it.dist, mi, le, prev, ix.set.Metas[mi]
	return true
}

// drop counts a pop the duplicate-elimination rule discarded.
func (r *evalRun) drop(mi int32, it pqItem) bool {
	r.dupDropped++
	if r.tr != nil {
		r.tr.DupDrop(mi, int64(it.node), it.dist)
	}
	return false
}

// probe is step (2): it streams the admitted entry's matching descendants —
// ancestors on the reverse axis — from its meta document's index into visit.
func (r *evalRun) probe() {
	wildcard := r.tag == ""
	localTag := lgraph.NoTag
	if !wildcard {
		localTag = r.md.LocalTag(r.tagID)
		if localTag == lgraph.NoTag {
			return // tag absent from this meta document; its links are still followed
		}
	}
	// Probe timing is only measured when a tracer is attached; the extra
	// clock reads stay off the untraced hot path.
	var probeStart time.Time
	if r.tr != nil {
		r.probeResults = 0
		probeStart = time.Now()
	}
	switch visit := r.s.visitFn; {
	case r.reverse && wildcard:
		r.idx.EachReaching(r.le, visit)
	case r.reverse:
		r.idx.EachReachingByTag(r.le, localTag, visit)
	case wildcard:
		r.idx.EachReachable(r.le, visit)
	default:
		r.idx.EachReachableByTag(r.le, localTag, visit)
	}
	if r.tr != nil {
		r.tr.Probe(r.mi, r.idx.Name(), r.probeResults, time.Since(probeStart))
	}
}

// follow is step (3): it queues what the admitted entry's runtime links lead
// to.  Forward, the links the entry reaches come from the meta document's
// link table under region encoding (links laid out by source rank when a
// query first follows them, hop distance dist(e) + 1 + depth(source) -
// depth(e)), else from per-source distance tests through linkVisit; in
// reverse, every link entering the meta document at an element that reaches
// the entry queues its source.  Every link taken goes through hop.
//
// Under region encoding the forward sweep skips the sources below the earlier
// entry points nested in this one (enter hands their regions over as prev).
// That loses nothing: such an entry p popped no later, d(p) <= d(e), and lies
// deeper, so every source l below it offered its targets at
// d(p) + dist(p, l) + 1 < d(e) + dist(e, l) + 1 — which relax now refuses —
// or was cut by a MaxDist no smaller than today's (ConnectedOpts only
// tightens it).
func (r *evalRun) follow() {
	if r.reverse {
		for _, il := range r.md.InLinks {
			if d, ok := r.idx.Distance(il.ToLocal, r.le); ok {
				r.hop(il.From, r.dist+d+1)
			}
		}
		return
	}
	if len(r.md.LinkSources) == 0 {
		return
	}
	lt := r.ix.linkTable(int(r.mi))
	if lt == nil {
		pathindex.LinkDistances(r.idx, r.le, r.md.LinkSources, r.s.linkFn)
		return
	}
	var skip []pathindex.Span
	if r.rg != nil {
		skip = r.prev
	}
	r.s.runs = lt.Sweep(r.le, skip, r.s.runs[:0])
	base := r.dist + 1 - lt.Depth(r.le)
	to, dep := lt.Links()
	for _, run := range r.s.runs {
		for j := run.Lo; j < run.Hi; j++ {
			r.hop(xmlgraph.NodeID(to[j]), base+dep[j])
		}
	}
}

// visit handles one node streamed from a meta document's index probe.  The
// per-meta-document probes are not resumable, so a pop near a band edge
// overshoots; buffered sinks hold the overshoot until its distance is due.
func (r *evalRun) visit(n, ld int32) bool {
	gd := r.dist + ld
	if r.opts.MaxDist > 0 && gd > r.opts.MaxDist {
		return false // ld ascending: rest is farther
	}
	if gd == 0 && !r.opts.IncludeSelf {
		return true
	}
	s := r.s
	g := r.md.ToGlobal(n)
	switch {
	case r.merge:
		// Local distances are exact, so the minimum per node over all
		// expanded entries is the exact shortest distance.
		if i, seen := s.res.LoadOrStore(g, int32(len(s.merged))); !seen {
			s.merged = append(s.merged, pqItem{dist: gd, node: g})
		} else if gd < s.merged[i].dist {
			s.merged[i].dist = gd
		} else {
			return true
		}
		if r.tr != nil {
			r.probeResults++
			r.tr.Result(r.mi, int64(g), gd)
		}
		return true
	case r.opts.DupSeenSet:
		if _, dup := s.res.LoadOrStore(g, 0); dup {
			return true
		}
	case len(r.prev) > 0 && r.covered(r.prev, n):
		return true // reported below an earlier entry
	}
	if r.tr != nil {
		// Recorded at production time: a buffered result reaches the
		// client later.
		r.probeResults++
		r.tr.Result(r.mi, int64(g), gd)
	}
	if r.buffer {
		s.rbuf.push(pqItem{dist: gd, node: g})
		return true
	}
	if !r.emit(Result{Node: g, Dist: gd}) {
		r.stopped = true
		return false
	}
	return true
}

// linkVisit handles one reachable runtime-link source streamed from the
// per-source distance sweep: it hops along the source's links at
// dist(e) + dist(e, l) + 1.
func (r *evalRun) linkVisit(i int, d int32) bool {
	nd := r.dist + d + 1
	for _, cl := range r.md.LinksFrom(i) {
		r.hop(cl.To, nd)
	}
	return true
}

// hop takes one runtime link to node n at distance nd — the per-link body of
// every sweep, on either axis: within MaxDist it counts the hop and queues n,
// or, when n lies in a meta document the partial driver does not own, hands
// it back as a hop.
func (r *evalRun) hop(n xmlgraph.NodeID, nd int32) {
	if r.opts.MaxDist > 0 && nd > r.opts.MaxDist {
		return
	}
	r.linkHops++
	if r.tr != nil {
		r.tr.LinkHop(r.mi, int64(n), nd)
	}
	s := r.s
	if r.owned != nil && !r.owned(r.ix.set.MetaOf[n]) {
		if s.best.Relax(n, nd) {
			s.hops = append(s.hops, pqItem{dist: nd, node: n})
		}
		return
	}
	s.queue(n, nd)
}

// emit forwards one result to the client callback and enforces MaxResults.
func (r *evalRun) emit(res Result) bool {
	if !r.fn(res) {
		return false
	}
	r.emitted++
	return r.opts.MaxResults <= 0 || r.emitted < r.opts.MaxResults
}

// enter applies the coverage rule to local node le of meta document mi.  It
// reports false when an earlier entry point covers le, and otherwise records
// le as an entry point and returns the prev that visit tests the entry's
// results against.
//
// Without region encoding mi's list holds one Span{Lo: le} per entry point,
// coverage is a Reachable call per earlier one, and prev is the list before
// le was appended.  With it the list is sorted and coverage one binary search:
//
//   - forward, the list holds the regions of the entry points no other entry
//     point reaches — subtrees, so disjoint — and le is covered iff one holds
//     pre(le).  le's region replaces the regions it holds, and those are prev:
//     results below an earlier entry point lie in one of them, and follow
//     skips their link sources;
//   - reverse, the list holds the entry points' ranks, Span{Lo: pre}, and le
//     is covered iff its region holds one.  le's rank is inserted, and prev is
//     the whole list: covered passes over the entry's own rank.
func (r *evalRun) enter(mi, le int32) ([]pathindex.Span, bool) {
	ents := r.s.entered.at(mi)
	list := *ents
	if r.rg = r.ix.regions[mi]; r.rg == nil {
		if r.covered(list, le) {
			return nil, false
		}
		*ents = append(list, pathindex.Span{Lo: le})
		return list, true
	}
	r.span = r.rg.Region(le)
	if holds(list, r.span, r.reverse, -1) {
		return nil, false
	}
	j := searchSpans(list, r.span.Lo)
	if r.reverse {
		*ents = slices.Insert(list, j, pathindex.Span{Lo: r.span.Lo})
		return *ents, true
	}
	m := j + searchSpans(list[j:], r.span.Hi)
	r.s.skip = append(r.s.skip[:0], list[j:m]...)
	*ents = slices.Replace(list, j, m, r.span)
	return r.s.skip, true
}

// covered reports whether an entry point in prev (see enter) reaches local
// node n — on the reverse axis, is reached by it.
func (r *evalRun) covered(prev []pathindex.Span, n int32) bool {
	if r.rg != nil {
		return holds(prev, r.rg.Region(n), r.reverse, r.span.Lo)
	}
	for _, p := range prev {
		from, to := p.Lo, n
		if r.reverse {
			from, to = n, p.Lo
		}
		if r.idx.Reachable(from, to) {
			return true
		}
	}
	return false
}

// holds is the coverage test under region encoding, for the element whose
// region is sp: forward, whether a region in prev holds its rank sp.Lo;
// reverse, whether sp holds a rank in prev other than own, the current
// entry's (-1 for none).
func holds(prev []pathindex.Span, sp pathindex.Span, reverse bool, own int32) bool {
	if !reverse {
		k := searchSpans(prev, sp.Lo+1)
		return k > 0 && prev[k-1].Hi > sp.Lo
	}
	k := searchSpans(prev, sp.Lo)
	if k < len(prev) && prev[k].Lo == own {
		k++
	}
	return k < len(prev) && prev[k].Lo < sp.Hi
}

// searchSpans returns the index of the first span of the Lo-ascending a whose
// Lo is at least v.
func searchSpans(a []pathindex.Span, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a[m].Lo < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
