package query

// Frozen reference evaluators, mirroring internal/flix/reference.go: the
// optimized ranked-query paths in topk.go are checked differentially and
// benchmarked against these deliberately simple implementations.
//
//   - ReferenceEvaluate is the map-based full evaluator with per-candidate
//     math.Pow decay — the correctness oracle.  EvaluateTopK(q, k) must
//     equal ReferenceEvaluate(q)[:k] element for element.
//   - ReferenceEvaluateTopK is the pre-optimization top-k evaluator (one
//     fully materialized buffer per stream, full top-k heap rebuild per
//     accepted candidate) — what TestTopKMatchesReferenceTopK holds the
//     rewrite's ranking to.
//
// Do not "improve" this file: its value is staying put while topk.go moves.

import (
	"container/heap"
	"math"
	"sort"
	"strings"

	"repro/internal/flix"
	"repro/internal/xmlgraph"
)

// ReferenceEvaluate runs the query with the frozen full evaluator and
// returns all results ranked by descending relevance (ties: shorter path,
// then node ID).  Unlike Evaluate it never truncates to MaxResults — the
// differential suite needs the complete ranking.
func (e *Evaluator) ReferenceEvaluate(q *Query) []Match {
	e.Stats = EvalStats{}
	frontier := e.refAnchor(q.Steps[0])
	for _, s := range q.Steps[1:] {
		if e.canceled() {
			e.Stats.Truncated = true
			break
		}
		frontier = e.refAdvance(frontier, s)
		if len(frontier) == 0 {
			return nil
		}
	}
	out := make([]Match, 0, len(frontier))
	for _, m := range frontier {
		out = append(out, m)
	}
	refSortMatches(out)
	return out
}

// refSortMatches is the frozen copy of sortMatches: descending score, ties
// by shorter path then node ID.
func refSortMatches(out []Match) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].PathLen != out[j].PathLen {
			return out[i].PathLen < out[j].PathLen
		}
		return out[i].Node < out[j].Node
	})
}

// referenceMatchesPred is the frozen copy of the predicate test: the oracle
// must not follow edits to the code it checks, so it scans and lower-cases
// per element however the live evaluator answers predicates.
func (e *Evaluator) referenceMatchesPred(s Step, n xmlgraph.NodeID) bool {
	switch s.Op {
	case PredNone:
		return true
	case PredEq:
		return e.Index.Collection().Node(n).Text == s.Value
	case PredContains:
		return strings.Contains(
			strings.ToLower(e.Index.Collection().Node(n).Text),
			strings.ToLower(s.Value))
	default:
		return false
	}
}

// refAnchor is the frozen copy of anchor.
func (e *Evaluator) refAnchor(s Step) map[xmlgraph.NodeID]Match {
	coll := e.Index.Collection()
	frontier := make(map[xmlgraph.NodeID]Match)
	add := func(n xmlgraph.NodeID, score float64) {
		if !e.referenceMatchesPred(s, n) {
			return
		}
		if old, ok := frontier[n]; !ok || score > old.Score {
			frontier[n] = Match{Node: n, Score: score}
		}
	}
	for _, wt := range e.expansions(s) {
		switch {
		case s.Axis == Child && wt.Tag == "":
			for d := 0; d < coll.NumDocs(); d++ {
				add(coll.Doc(xmlgraph.DocID(d)).Root, wt.Score)
			}
		case s.Axis == Child:
			for d := 0; d < coll.NumDocs(); d++ {
				r := coll.Doc(xmlgraph.DocID(d)).Root
				if coll.Tag(r) == wt.Tag {
					add(r, wt.Score)
				}
			}
		case wt.Tag == "":
			for n := 0; n < coll.NumNodes(); n++ {
				add(xmlgraph.NodeID(n), wt.Score)
			}
		default:
			for _, n := range coll.NodesByTag(wt.Tag) {
				add(n, wt.Score)
			}
		}
	}
	e.Stats.Anchored = len(frontier)
	return frontier
}

// refAdvance is the frozen copy of advance, including the deterministic
// per-node tie-break (maximum score, then shorter path) that defines the
// ranking contract the optimized paths must reproduce.
func (e *Evaluator) refAdvance(frontier map[xmlgraph.NodeID]Match, s Step) map[xmlgraph.NodeID]Match {
	e.Stats.Steps++
	coll := e.Index.Collection()
	next := make(map[xmlgraph.NodeID]Match)
	add := func(n xmlgraph.NodeID, score float64, pathLen int32) {
		if score < e.minScore() || !e.referenceMatchesPred(s, n) {
			return
		}
		if old, ok := next[n]; !ok || score > old.Score ||
			(score == old.Score && pathLen < old.PathLen) {
			next[n] = Match{Node: n, Score: score, PathLen: pathLen}
		}
	}
	for _, wt := range e.expansions(s) {
		for _, m := range frontier {
			if e.canceled() {
				e.Stats.Truncated = true
				return next
			}
			base := m.Score * wt.Score
			if base < e.minScore() {
				continue
			}
			if s.Axis == Child {
				coll.EachSuccessor(m.Node, func(c xmlgraph.NodeID) {
					if wt.Tag == "" || coll.Tag(c) == wt.Tag {
						add(c, base, m.PathLen+1)
					}
				})
				continue
			}
			e.Stats.Scans++
			opts := flix.Options{MaxDist: e.maxDistFor(base), Cancel: e.Cancel, Tracer: e.Tracer}
			e.Index.Descendants(m.Node, wt.Tag, opts, func(r flix.Result) bool {
				score := base
				if r.Dist > 1 {
					score *= math.Pow(e.decay(), float64(r.Dist-1))
				}
				add(r.Node, score, m.PathLen+r.Dist)
				return true
			})
			if e.InverseScore > 0 && e.InverseScore < 1 {
				invBase := base * e.InverseScore
				if invBase < e.minScore() {
					continue
				}
				e.Stats.InverseScans++
				invOpts := flix.Options{MaxDist: e.maxDistFor(invBase), Cancel: e.Cancel, Tracer: e.Tracer}
				e.Index.Ancestors(m.Node, wt.Tag, invOpts, func(r flix.Result) bool {
					score := invBase
					if r.Dist > 1 {
						score *= math.Pow(e.decay(), float64(r.Dist-1))
					}
					add(r.Node, score, m.PathLen+r.Dist)
					return true
				})
			}
		}
	}
	return next
}

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
			if base < e.minScore() {
				continue
			}
			streams = append(streams, &refResultStream{
				e: e, from: m, tag: wt.Tag, base: base, maxDist: e.maxDistFor(base),
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
		s.curScore *= math.Pow(s.e.decay(), float64(r.Dist-1))
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
