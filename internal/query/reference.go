package query

// The frozen reference evaluator: ReferenceEvaluate is the map-based full
// evaluator with per-candidate math.Pow decay — the correctness oracle the
// optimized ranked-query paths in topk.go are checked against differentially.
// EvaluateTopK(q, k) must equal ReferenceEvaluate(q)[:k] element for element.
// It is not test-only code: the end-to-end benchmark verifies every ranked
// answer with it (benchmark/verify.go).  The frozen pre-optimization top-k
// evaluator lives beside the tests, in reference_test.go.
//
// Do not "improve" this file: its value is staying put while topk.go moves.

import (
	"math"
	"sort"
	"strings"

	"repro/internal/flix"
	"repro/internal/xmlgraph"
)

// ReferenceEvaluate runs the query with the frozen full evaluator and
// returns all results ranked by descending relevance (ties: shorter path,
// then node ID).
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
		return e.Index.Collection().Text(n) == s.Value
	case PredContains:
		return strings.Contains(
			strings.ToLower(e.Index.Collection().Text(n)),
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
		if score < minScore || !e.referenceMatchesPred(s, n) {
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
			if base < minScore {
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
			opts := flix.Options{MaxDist: maxDistFor(base), Cancel: e.Cancel, Tracer: e.Tracer}
			e.Index.Descendants(m.Node, wt.Tag, opts, func(r flix.Result) bool {
				score := base
				if r.Dist > 1 {
					score *= math.Pow(decay, float64(r.Dist-1))
				}
				add(r.Node, score, m.PathLen+r.Dist)
				return true
			})
			if e.InverseScore > 0 && e.InverseScore < 1 {
				invBase := base * e.InverseScore
				if invBase < minScore {
					continue
				}
				e.Stats.InverseScans++
				invOpts := flix.Options{MaxDist: maxDistFor(invBase), Cancel: e.Cancel, Tracer: e.Tracer}
				e.Index.Ancestors(m.Node, wt.Tag, invOpts, func(r flix.Result) bool {
					score := invBase
					if r.Dist > 1 {
						score *= math.Pow(decay, float64(r.Dist-1))
					}
					add(r.Node, score, m.PathLen+r.Dist)
					return true
				})
			}
		}
	}
	return next
}
