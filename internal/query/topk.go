package query

import (
	"math"
	"sort"
	"sync"

	"repro/internal/flix"
	"repro/internal/ontology"
	"repro/internal/xmlgraph"
)

// This file is the allocation-disciplined ranked top-k evaluator: the
// threshold algorithm of §3.1 ("stop the execution when it can determine
// that it has produced the top k results ... similar to Fagin's threshold
// algorithm with only sequential reads").  It returns the full ranking's
// first k elements while touching only what the threshold needs, and in
// steady state it allocates only the returned slice and the sort.  Four
// mechanisms give that; the frozen ReferenceEvaluateTopK, which has none of
// them, is what the differential suite holds the answers to:
//
//   - Streams pull candidates in bounded distance bands through the
//     resumable flix.Probe rather than materializing each stream's complete
//     result set: a stream touched once near the threshold fetches only its
//     nearest band, and the expensive far links are never followed for
//     streams the threshold retires early.
//   - Accepted candidates go into an incremental indexed heap, O(log k)
//     each; re-sorting every candidate per stream advance is quadratic.
//   - The decay is a table lookup whose entries are math.Pow values, so
//     scores are bit-identical to the full evaluator's.
//   - All per-query state — streams, their buffers, both heaps, the decay
//     table — lives in a pooled topkScratch.
//
// Exactness contract (locked down by the differential suite): for every
// query and k, EvaluateTopK(q, k) equals the first min(k, n) elements of
// the full evaluator's deterministic ranking — same nodes, same scores,
// same path lengths, same order.  Two design points make that exact rather
// than merely "top-k up to ties": the per-node winner rule is shared with
// advance (max score, ties to the shorter path), and the threshold stop is
// strict — the scan only stops when the k-th collected score is strictly
// above every stream's bound, so candidates tying the k-th score are still
// examined and the tie is resolved by the same total order sortMatches
// uses.

// bandedBackend is the optional Backend capability the top-k streams
// prefer: a resumable probe pulling descendants in bounded distance bands.
// *flix.Index implements it; backends without it — the scatter-gather
// router evaluates each scan across the cluster — fall back to buffered
// full-fetch streams, which keep the pooling, the decay table and the
// incremental heap but not the banded early exit.
type bandedBackend interface {
	StartProbe(p *flix.Probe, start xmlgraph.NodeID, tag string, opts flix.Options)
}

var _ bandedBackend = (*flix.Index)(nil)

// maxDecayTab bounds the precomputed decay table; distances beyond it fall
// back to math.Pow (only reachable with a decay very close to 1).
const maxDecayTab = 64

// topkScratch pools the per-query state of EvaluateTopK.  The pool is
// package-level rather than per-Evaluator because server handlers build a
// fresh Evaluator per request; the scratch must outlive them to be warm.
type topkScratch struct {
	streams []resultStream
	heap    []int32 // stream indices, max-heap by curScore
	topk    topkHeap
	open    int // banded streams whose probe is paused mid-evaluation

	// decayTab[d] = decay^(d-1) for the decay it was built for.  Entries
	// are computed with math.Pow, not iterated multiplication: candidate
	// scores must equal the full evaluator's per-candidate math.Pow bit
	// for bit or the differential equality fails on ULPs.
	decay    float64
	decayTab []float64
}

var topkPool = sync.Pool{New: func() any { return new(topkScratch) }}

func (ts *topkScratch) ensureDecay(decay float64) {
	if ts.decay != decay {
		ts.decayTab = ts.decayTab[:0]
		ts.decay = decay
	}
	for d := len(ts.decayTab); d <= maxDecayTab; d++ {
		ts.decayTab = append(ts.decayTab, math.Pow(decay, float64(d-1)))
	}
}

// score is the relevance of a candidate at distance dist on a stream with
// the given base score.
func (ts *topkScratch) score(base float64, dist int32) float64 {
	if dist <= 1 {
		return base
	}
	if int(dist) <= maxDecayTab {
		return base * ts.decayTab[dist]
	}
	return base * math.Pow(ts.decay, float64(dist-1))
}

// addStream appends a stream, reusing the pooled element (probe frontier,
// band buffer) when the backing array still has capacity.
func (ts *topkScratch) addStream(from Match, tag string, base float64, maxDist int32, banded, inverse bool) {
	var s *resultStream
	if n := len(ts.streams); n < cap(ts.streams) {
		ts.streams = ts.streams[:n+1]
		s = &ts.streams[n]
	} else {
		ts.streams = append(ts.streams, resultStream{})
		s = &ts.streams[len(ts.streams)-1]
	}
	s.from, s.tag, s.base, s.maxDist = from, tag, base, maxDist
	s.banded, s.inverse = banded, inverse
	s.band, s.opened, s.done = 0, false, false
	s.buf, s.pos = s.buf[:0], 0
	s.hasCand = false
	// Until the stream is opened its bound is the base score: the nearest
	// possible candidate (distance <= 1) scores exactly base.
	s.curScore = base
}

// release returns the scratch to the pool, closing probes the early stop
// abandoned mid-band so their work still reaches the index counters.
func (ts *topkScratch) release() {
	for i := range ts.streams {
		s := &ts.streams[i]
		if s.banded && s.opened && !s.done {
			s.probe.Close()
		}
	}
	ts.streams = ts.streams[:0]
	ts.heap = ts.heap[:0]
	ts.open = 0
	ts.topk.reset()
	topkPool.Put(ts)
}

// resultStream pulls one (frontier element, tag expansion) stream of the
// last step, exposing candidates in descending score order.  Banded streams
// resume a flix.Probe one distance band at a time; buffered streams (the
// Backend fallback and the InverseScore ancestor streams) fetch everything
// on first touch.
type resultStream struct {
	from    Match
	tag     string
	base    float64
	maxDist int32
	banded  bool
	inverse bool

	probe  flix.Probe
	band   int32 // highest band already drained from the probe
	opened bool
	done   bool // no further candidates will ever arrive

	buf []flix.Result // pending candidates in ascending (dist, node)
	pos int

	curNode xmlgraph.NodeID
	curDist int32
	// curScore is the current candidate's exact score when hasCand, else
	// an upper bound on everything the stream can still produce.
	curScore float64
	hasCand  bool

	// emitFn is the bound appendResult, rebound only when the stream's
	// address changes (the pooled backing array was regrown).
	emitFn func(flix.Result) bool
	self   *resultStream
}

func (s *resultStream) appendResult(r flix.Result) bool {
	s.buf = append(s.buf, r)
	return true
}

// cursor advances the stream to its next candidate, or to the bound state
// for the unfetched remainder.
func (ts *topkScratch) cursor(s *resultStream) {
	if s.pos < len(s.buf) {
		r := s.buf[s.pos]
		s.pos++
		s.curNode, s.curDist = r.Node, r.Dist
		s.curScore = ts.score(s.base, r.Dist)
		s.hasCand = true
		return
	}
	s.hasCand = false
	if !s.done {
		// Everything not yet fetched is beyond the drained band.
		s.curScore = ts.score(s.base, s.band+1)
	}
}

// fetchStream opens or resumes a stream: the next probe band for banded
// streams, the complete buffered result set otherwise.
func (e *Evaluator) fetchStream(ts *topkScratch, s *resultStream, bb bandedBackend) {
	if s.self != s {
		s.self = s
		s.emitFn = s.appendResult
	}
	if !s.banded {
		s.opened, s.done = true, true
		opts := flix.Options{MaxDist: s.maxDist, Cancel: e.Cancel, Tracer: e.Tracer}
		if s.inverse {
			e.Stats.InverseScans++
			e.Index.Ancestors(s.from.Node, s.tag, opts, s.emitFn)
		} else {
			e.Stats.Scans++
			e.Index.Descendants(s.from.Node, s.tag, opts, s.emitFn)
		}
		// FliX streams only approximately distance-ordered across meta
		// documents; per-stream score monotonicity needs ascending dist.
		sort.Slice(s.buf, func(i, j int) bool {
			if s.buf[i].Dist != s.buf[j].Dist {
				return s.buf[i].Dist < s.buf[j].Dist
			}
			return s.buf[i].Node < s.buf[j].Node
		})
		ts.cursor(s)
		return
	}
	if !s.opened {
		s.opened = true
		e.Stats.Scans++
		bb.StartProbe(&s.probe, s.from.Node, s.tag,
			flix.Options{MaxDist: s.maxDist, Cancel: e.Cancel, Tracer: e.Tracer})
		ts.open++
		e.Stats.PeakOpen = max(e.Stats.PeakOpen, ts.open)
	}
	s.buf, s.pos = s.buf[:0], 0
	s.band = flix.NextBand(s.band, s.maxDist)
	if !s.probe.Next(s.band, s.emitFn) {
		s.done = true
		if s.probe.Truncated() {
			e.Stats.Truncated = true
		}
		s.probe.Close()
		ts.open--
	}
	ts.cursor(s)
}

// Stream-index heap: a hand-rolled binary max-heap over curScore, ties to
// the lower index for a deterministic consumption order.
func (ts *topkScratch) hless(i, j int32) bool {
	si, sj := &ts.streams[i], &ts.streams[j]
	if si.curScore != sj.curScore {
		return si.curScore > sj.curScore
	}
	return i < j
}

func (ts *topkScratch) hinit() {
	for i := int32(len(ts.heap))/2 - 1; i >= 0; i-- {
		ts.hdown(i)
	}
}

func (ts *topkScratch) hdown(i int32) {
	h := ts.heap
	n := int32(len(h))
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && ts.hless(h[l], h[m]) {
			m = l
		}
		if r < n && ts.hless(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// hfix restores heap order after the root stream's curScore changed (it can
// only have decreased).
func (ts *topkScratch) hfix() { ts.hdown(0) }

// hpop removes the root stream.
func (ts *topkScratch) hpop() {
	h := ts.heap
	n := len(h) - 1
	h[0] = h[n]
	ts.heap = h[:n]
	ts.hdown(0)
}

// topkHeap is the incremental indexed top-k heap replacing the frozen
// refMatchHeap.rebuild: a min-heap whose root is the worst of the current
// k best per-node candidates under the full sortMatches order, plus a
// node→slot index so an in-heap candidate improves in place.
//
// Evicted nodes need no tombstones: the root is the minimum of the heap
// under the total order and per-node bests only ever improve, so a node
// evicted as the worst of k+1 can only re-enter by beating the (monotone
// non-decreasing) root — the plain insert path handles it.
type topkHeap struct {
	a   []Match
	pos map[xmlgraph.NodeID]int32
}

// worseMatch reports whether a ranks strictly after b in the final output
// order (sortMatches: score desc, path length asc, node asc).
func worseMatch(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	if a.PathLen != b.PathLen {
		return a.PathLen > b.PathLen
	}
	return a.Node > b.Node
}

func (h *topkHeap) reset() {
	h.a = h.a[:0]
	if h.pos == nil {
		h.pos = make(map[xmlgraph.NodeID]int32)
	} else {
		clear(h.pos)
	}
}

// consider offers one candidate: improve it in place if its node already
// holds a slot, insert it while the heap is short, else evict the current
// worst when the candidate beats it.
func (h *topkHeap) consider(cand Match, k int) {
	if i, ok := h.pos[cand.Node]; ok {
		old := h.a[i]
		// Same per-node winner rule as advance: max score, then the
		// shorter path.
		if cand.Score > old.Score || (cand.Score == old.Score && cand.PathLen < old.PathLen) {
			h.a[i] = cand
			h.down(i) // improving moves a slot away from the worst root
		}
		return
	}
	if len(h.a) < k {
		h.a = append(h.a, cand)
		i := int32(len(h.a) - 1)
		h.pos[cand.Node] = i
		h.up(i)
		return
	}
	if !worseMatch(h.a[0], cand) {
		return // not better than the current k-th
	}
	delete(h.pos, h.a[0].Node)
	h.a[0] = cand
	h.pos[cand.Node] = 0
	h.down(0)
}

// ranked returns a copy of the kept matches in sortMatches order.
func (h *topkHeap) ranked() []Match {
	out := make([]Match, len(h.a))
	copy(out, h.a)
	sortMatches(out)
	return out
}

func (h *topkHeap) swap(i, j int32) {
	h.a[i], h.a[j] = h.a[j], h.a[i]
	h.pos[h.a[i].Node] = i
	h.pos[h.a[j].Node] = j
}

func (h *topkHeap) up(i int32) {
	for i > 0 {
		p := (i - 1) / 2
		if !worseMatch(h.a[i], h.a[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *topkHeap) down(i int32) {
	n := int32(len(h.a))
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && worseMatch(h.a[l], h.a[m]) {
			m = l
		}
		if r < n && worseMatch(h.a[r], h.a[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

// EvaluateTopK evaluates the query and returns exactly the first
// min(k, n) elements of the full evaluator's ranking, stopping the
// underlying index scans early in the style of Fagin's threshold algorithm
// with sorted access only.  MaxResults is ignored — k is the truncation.
// A cancellation mid-scan returns the matches ranked so far and sets
// Stats.Truncated.
//
// For every step but the last, evaluation proceeds as in Evaluate.  The
// last step opens one candidate stream per (frontier element, tag
// expansion) pair — plus one ancestor stream per pair when InverseScore is
// set.  Each stream delivers candidates in descending score (FliX streams
// descendants in ascending distance and the decay is monotone in
// distance), so a stream's next candidate — or, for its unfetched banded
// remainder, the decayed score one past the drained band — bounds
// everything it can still produce.  Streams are consumed best-first; the
// scan stops when the k-th best collected score strictly exceeds every
// remaining bound.
func (e *Evaluator) EvaluateTopK(q *Query, k int) []Match {
	if k <= 0 {
		return nil
	}
	e.Stats = EvalStats{}
	if len(q.Steps) == 1 && !overlapping(e.expansions(q.Steps[0])) {
		// Nothing to advance: the anchored elements are the answer, and the
		// heap keeps k of them instead of a map of all and their full sort.
		ts := topkPool.Get().(*topkScratch)
		defer ts.release()
		ts.topk.reset()
		e.anchorEach(q.Steps[0], func(n xmlgraph.NodeID, score float64) {
			e.Stats.Anchored++ // expansions are disjoint: every call is a new element
			ts.topk.consider(Match{Node: n, Score: score}, k)
		})
		return ts.topk.ranked()
	}
	frontier := e.anchor(q.Steps[0])
	if len(q.Steps) == 1 {
		return topOf(frontier, k)
	}
	for _, s := range q.Steps[1 : len(q.Steps)-1] {
		frontier = e.advance(frontier, s)
		if len(frontier) == 0 {
			return nil
		}
	}
	last := q.Steps[len(q.Steps)-1]
	if last.Axis == Child {
		// The child axis has no distance decay to exploit; fall back to
		// full evaluation of the final step.
		final := e.advance(frontier, last)
		return topOf(final, k)
	}
	e.Stats.Steps++ // the streamed last step (advance counts the others)

	bb, _ := e.Index.(bandedBackend)
	ts := topkPool.Get().(*topkScratch)
	defer ts.release()
	ts.ensureDecay(e.decay())

	minScore := e.minScore()
	coll, lastPred := e.Index.Collection(), newPred(last)
	inverse := e.InverseScore > 0 && e.InverseScore < 1
	for _, wt := range e.expansions(last) {
		for _, m := range frontier {
			base := m.Score * wt.Score
			if base < minScore {
				continue
			}
			ts.addStream(m, wt.Tag, base, e.maxDistFor(base), bb != nil, false)
			if inverse {
				if invBase := base * e.InverseScore; invBase >= minScore {
					ts.addStream(m, wt.Tag, invBase, e.maxDistFor(invBase), false, true)
				}
			}
		}
	}
	for i := range ts.streams {
		ts.heap = append(ts.heap, int32(i))
	}
	ts.hinit()
	ts.topk.reset()

	for len(ts.heap) > 0 {
		if e.canceled() {
			e.Stats.Truncated = true
			break
		}
		s := &ts.streams[ts.heap[0]]
		// Threshold test, strict: stopping on a tie could drop an unseen
		// candidate that ties the k-th score but wins on path length.
		if len(ts.topk.a) >= k && ts.topk.a[0].Score > s.curScore {
			break
		}
		if !s.hasCand {
			if !s.done {
				e.fetchStream(ts, s, bb)
			}
			if s.done && !s.hasCand {
				ts.hpop()
			} else {
				ts.hfix()
			}
			continue
		}
		cand := Match{Node: s.curNode, Score: s.curScore, PathLen: s.from.PathLen + s.curDist}
		ts.cursor(s)
		if s.done && !s.hasCand {
			ts.hpop()
		} else {
			ts.hfix()
		}
		// The minScore filter mirrors advance's: maxDistFor truncates to
		// whole edges, so a candidate at the boundary distance can still
		// decay just below MinScore.
		if cand.Score < minScore || !lastPred.matches(coll.Text(cand.Node)) {
			continue
		}
		ts.topk.consider(cand, k)
	}
	return ts.topk.ranked()
}

// overlapping reports whether two of a step's tag expansions can match the
// same element.  Named tags never do; the wildcard beside them does, which
// takes an ontology that relates a name to "".
func overlapping(exps []ontology.WeightedTag) bool {
	if len(exps) > 1 {
		for _, wt := range exps {
			if wt.Tag == "" {
				return true
			}
		}
	}
	return false
}

func topOf(m map[xmlgraph.NodeID]Match, k int) []Match {
	out := make([]Match, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return topOf2(out, k)
}

func topOf2(out []Match, k int) []Match {
	sortMatches(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}
