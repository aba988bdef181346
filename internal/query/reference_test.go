package query

// ReferenceEvaluateTopK is the pre-optimization top-k evaluator (one fully
// materialized buffer per stream, full top-k heap rebuild per accepted
// candidate), frozen: TestTopKMatchesReferenceTopK holds the rewrite's
// ranking to it.  Like reference.go, its value is staying put while topk.go
// moves.

import (
	"container/heap"
	"math"
	"sort"

	"repro/internal/flix"
	"repro/internal/xmlgraph"
)

// ReferenceEvaluateTopK is the frozen pre-optimization EvaluateTopK: the
// same threshold-algorithm shape as the optimized path, but every touched
// stream materializes its complete result set up front, the decay is a
// math.Pow per candidate, and the top-k heap is fully rebuilt from the
// candidate map on every accepted candidate.  Note its last-step streams
// ignore InverseScore, as the original did.
func (e *Evaluator) ReferenceEvaluateTopK(q *Query, k int) []Match {
	if k <= 0 {
		return nil
	}
	e.Stats = EvalStats{}
	if len(q.Steps) == 1 {
		out := e.ReferenceEvaluate(q)
		if len(out) > k {
			out = out[:k]
		}
		return out
	}
	frontier := e.refAnchor(q.Steps[0])
	for _, s := range q.Steps[1 : len(q.Steps)-1] {
		frontier = e.refAdvance(frontier, s)
		if len(frontier) == 0 {
			return nil
		}
	}
	last := q.Steps[len(q.Steps)-1]
	if last.Axis == Child {
		final := e.refAdvance(frontier, last)
		return topOf(final, k)
	}
	e.Stats.Steps++

	var streams []*refResultStream
	for _, wt := range e.expansions(last) {
		for _, m := range frontier {
			base := m.Score * wt.Score
			if base < minScore {
				continue
			}
			streams = append(streams, &refResultStream{
				e: e, from: m, tag: wt.Tag, base: base, maxDist: maxDistFor(base),
			})
		}
	}
	h := make(refStreamHeap, 0, len(streams))
	for _, s := range streams {
		s.curScore = s.base
		h = append(h, s)
	}
	heap.Init(&h)

	best := make(map[xmlgraph.NodeID]Match)
	collected := &refMatchHeap{}
	for h.Len() > 0 && !e.canceled() {
		if collected.Len() >= k && (*collected)[0].Score >= h[0].curScore {
			break
		}
		s := h[0]
		if !s.fetched {
			if s.next() {
				heap.Fix(&h, 0)
			} else {
				heap.Pop(&h)
			}
			continue
		}
		cand := Match{Node: s.curNode, Score: s.curScore, PathLen: s.curPathLen}
		if s.next() {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
		if !e.referenceMatchesPred(last, cand.Node) {
			continue
		}
		if old, ok := best[cand.Node]; ok && old.Score >= cand.Score {
			continue
		}
		best[cand.Node] = cand
		collected.rebuild(best, k)
	}
	out := make([]Match, 0, len(best))
	for _, m := range best {
		out = append(out, m)
	}
	return topOf2(out, k)
}

// refResultStream is the frozen buffer-everything stream.
type refResultStream struct {
	e       *Evaluator
	from    Match
	tag     string
	base    float64
	maxDist int32

	buf []flix.Result
	pos int

	curNode    xmlgraph.NodeID
	curScore   float64
	curPathLen int32
	fetched    bool
}

func (s *refResultStream) next() bool {
	if !s.fetched {
		s.fetched = true
		s.e.Stats.Scans++
		s.e.Index.Descendants(s.from.Node, s.tag,
			flix.Options{MaxDist: s.maxDist, Cancel: s.e.Cancel, Tracer: s.e.Tracer},
			func(r flix.Result) bool {
				s.buf = append(s.buf, r)
				return true
			})
		sort.Slice(s.buf, func(i, j int) bool {
			if s.buf[i].Dist != s.buf[j].Dist {
				return s.buf[i].Dist < s.buf[j].Dist
			}
			return s.buf[i].Node < s.buf[j].Node
		})
	}
	if s.pos >= len(s.buf) {
		return false
	}
	r := s.buf[s.pos]
	s.pos++
	s.curNode = r.Node
	s.curScore = s.base
	if r.Dist > 1 {
		s.curScore *= math.Pow(decay, float64(r.Dist-1))
	}
	s.curPathLen = s.from.PathLen + r.Dist
	return true
}

// refStreamHeap is a max-heap over current candidate scores.
type refStreamHeap []*refResultStream

func (h refStreamHeap) Len() int           { return len(h) }
func (h refStreamHeap) Less(i, j int) bool { return h[i].curScore > h[j].curScore }
func (h refStreamHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refStreamHeap) Push(x any)        { *h = append(*h, x.(*refResultStream)) }
func (h *refStreamHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	*h = old[:n-1]
	return s
}

// refMatchHeap tracks the k-th best score by full rebuild — the quadratic
// hotspot the optimized path replaced.
type refMatchHeap []Match

func (h refMatchHeap) Len() int           { return len(h) }
func (h refMatchHeap) Less(i, j int) bool { return h[i].Score < h[j].Score }
func (h refMatchHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refMatchHeap) Push(x any)        { *h = append(*h, x.(Match)) }
func (h *refMatchHeap) Pop() any {
	old := *h
	n := len(old)
	m := old[n-1]
	*h = old[:n-1]
	return m
}

func (h *refMatchHeap) rebuild(best map[xmlgraph.NodeID]Match, k int) {
	*h = (*h)[:0]
	for _, m := range best {
		heap.Push(h, m)
		if h.Len() > k {
			heap.Pop(h)
		}
	}
}
