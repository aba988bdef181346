package query

import (
	"math"
	"slices"
	"strings"

	"repro/internal/flix"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/xmlgraph"
)

// Match is one ranked query result.
type Match struct {
	Node xmlgraph.NodeID
	// Score is the XXL-style relevance in (0, 1]: the product of the tag
	// similarity of every matched step and a decay factor per extra path
	// edge.
	Score float64
	// PathLen is the total number of edges along the matched path.
	PathLen int32
}

// Backend is the index surface the evaluator runs against: a local
// *flix.Index in the single-node server, or the scatter-gather router in
// the sharded tier (internal/shard), which evaluates each //-step scan
// across the cluster.  The evaluator itself is backend-agnostic.
type Backend interface {
	// Collection returns the underlying document collection (tag lookups,
	// content predicates, document roots).
	Collection() *xmlgraph.Collection
	// Descendants streams the elements named tag reachable from start in
	// approximately ascending distance order, or under opts.ExactOrder in
	// ascending (dist, node) order (flix.Index semantics).
	Descendants(start xmlgraph.NodeID, tag string, opts flix.Options, fn flix.Emit)
	// Ancestors is the inverse-direction scan used by InverseScore, with the
	// same order contract.
	Ancestors(start xmlgraph.NodeID, tag string, opts flix.Options, fn flix.Emit)
}

var _ Backend = (*flix.Index)(nil)

// Evaluator runs parsed queries against a FliX index with optional
// ontology-based tag expansion.
type Evaluator struct {
	Index Backend
	// Ontology expands ~tag steps; nil disables semantic vagueness.
	Ontology *ontology.Ontology
	// InverseScore enables the inverted-direction vagueness of §1.1
	// ("one could also consider inverting the direction, i.e., consider
	// also actor/acts_in/movie relevant, with a lower similarity"): each
	// //-step additionally matches *ancestors*, scaled by this factor in
	// (0, 1).  0 disables inverse matching.
	InverseScore float64
	// Cancel aborts the evaluation when closed (typically a context's
	// Done channel): the hook is forwarded into every index scan and
	// checked between frontier expansions and stream pulls, so
	// EvaluateTopK returns promptly with what it ranked so far and sets
	// Stats.Truncated.
	Cancel <-chan struct{}
	// Tracer, when non-nil, records every underlying index scan of the
	// evaluation into one trace (the //-step descendant scans and the
	// InverseScore ancestor scans alike).  Nil costs nothing.
	Tracer *obs.Trace
	// Stats accumulates the index work of the most recent EvaluateTopK
	// call.  On the sharded tier every Scan is one scatter-gather, so the
	// router's cluster trace reconciles its gather count against these
	// counters.
	Stats EvalStats
}

// EvalStats counts one evaluation's backend work.
type EvalStats struct {
	// Steps is the number of steps advanced past the anchor.
	Steps int
	// Scans is the number of descendant scans issued to the backend
	// (EvaluateTopK counts only streams the threshold actually opened).
	Scans int
	// InverseScans is the number of ancestor scans (InverseScore > 0).
	InverseScans int
	// Anchored is the initial frontier size after the first step.
	Anchored int
	// PeakOpen is the largest number of banded streams EvaluateTopK held
	// open at once.  Each pins one paused flix.Probe (a private evaluation
	// scratch), so this is the multiplier on per-probe memory.
	PeakOpen int
	// Truncated reports that cancellation stopped the evaluation before it
	// examined everything it needed.  The returned matches are then sound
	// but possibly incomplete: every node is in the full ranking, with a
	// score no higher than its score there (a path not yet followed may
	// have scored it higher), and nothing tells them apart from a complete
	// answer by shape alone.  It may be conservatively set when the cancel
	// races the completion of the final scan.
	Truncated bool
}

func (e *Evaluator) canceled() bool {
	if e.Cancel == nil {
		return false
	}
	select {
	case <-e.Cancel:
		return true
	default:
		return false
	}
}

// The scoring model (XXL, §1.1) is fixed: a result's relevance is the
// product of the tag similarity of every matched step and decay per path
// edge beyond the first on //-steps.
const (
	// decay is the paper's movie/cast/actor ≈ 0.8 example: a result at
	// distance d contributes decay^(d-1).
	decay = 0.8
	// minTagScore prunes ontology expansions below this similarity.
	minTagScore = 0.5
	// minScore drops results whose relevance falls below it (maxDistFor).
	minScore = 0.01
	// maxDecayTab bounds decayTab, well past maxDistFor(1) = 21.
	maxDecayTab = 64
)

// decayTab[d] = decay^(d-1).  Entries are math.Pow values, not iterated
// products, so score equals the frozen reference evaluator's per-candidate
// math.Pow bit for bit.
var decayTab = func() (t [maxDecayTab + 1]float64) {
	for d := range t {
		t[d] = math.Pow(decay, float64(d-1))
	}
	return t
}()

// score is the relevance of a result at distance dist below a step whose
// base score is base.
func score(base float64, dist int32) float64 {
	if dist <= 1 {
		return base
	}
	if dist <= maxDecayTab {
		return base * decayTab[dist]
	}
	// A router's answer comes off the network, and nothing bounds its
	// distances by the MaxDist it was asked for.
	return base * math.Pow(decay, float64(dist-1))
}

// maxDistFor bounds a //-step's search depth: beyond it the decay pushes
// every result below minScore anyway.  Callers pass a base in
// [minScore, 1], so the bound lies in [1, 21].
func maxDistFor(base float64) int32 {
	d := math.Log(minScore/base)/math.Log(decay) + 1
	if d < 1 {
		return 1
	}
	return int32(d)
}

// expansions returns the tags a step matches with their similarity scores.
func (e *Evaluator) expansions(s Step) []ontology.WeightedTag {
	if s.Tag == "" {
		return []ontology.WeightedTag{{Tag: "", Score: 1}}
	}
	if !s.Similar || e.Ontology == nil {
		return []ontology.WeightedTag{{Tag: s.Tag, Score: 1}}
	}
	return e.Ontology.Similar(s.Tag, minTagScore)
}

// pred is a step's content predicate readied for a run of elements: the
// needle is lowered once per step, not once per element.
type pred struct {
	op      PredOp
	value   string
	lowered string
}

func newPred(s Step) pred {
	p := pred{op: s.Op, value: s.Value}
	if s.Op != PredNone {
		p.lowered = strings.ToLower(s.Value)
	}
	return p
}

// matches checks the predicate against an element's text.
func (p pred) matches(text string) bool {
	switch p.op {
	case PredNone:
		return true
	case PredEq:
		return text == p.value
	case PredContains:
		return strings.Contains(strings.ToLower(text), p.lowered)
	default:
		return false
	}
}

// narrow returns the elements named tag that can satisfy the predicate, and
// the test they still have to pass.  A needle the collection's text
// dictionary can look up is answered there: the postings of the tokens
// containing it are exactly the elements a scan would accept, so [text~]
// leaves nothing to test, and [text=] leaves the exact compare to the few
// elements holding the value as a token.  Everything else — no predicate, an
// empty needle or one with whitespace, an unfrozen collection — is every
// element named tag with the predicate untouched.
func (p pred) narrow(coll *xmlgraph.Collection, tag string) ([]xmlgraph.NodeID, pred) {
	if p.op != PredNone && xmlgraph.IsTextToken(p.lowered) {
		if d := coll.TextDict(tag); d != nil {
			if p.op == PredContains {
				return d.Containing(p.lowered), pred{}
			}
			return d.Exact(p.lowered), p
		}
	}
	return coll.NodesByTag(tag), p
}

// worseMatch reports whether a ranks strictly after b in the ranking: score
// descending, then path length ascending, then node ascending.
func worseMatch(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	if a.PathLen != b.PathLen {
		return a.PathLen > b.PathLen
	}
	return a.Node > b.Node
}

// sortMatches orders matches by the ranking worseMatch defines.
func sortMatches(out []Match) {
	slices.SortFunc(out, func(a, b Match) int {
		switch {
		case worseMatch(a, b):
			return 1
		case worseMatch(b, a):
			return -1
		}
		return 0
	})
}

// replaces is the per-node winner rule: a candidate replaces a node's
// current match when it scores higher, ties going to the shorter path.  The
// tie-break makes the ranking deterministic, so EvaluateTopK's answer for
// every k is an exact element-for-element prefix of it.
func replaces(cand, old Match) bool {
	return cand.Score > old.Score || (cand.Score == old.Score && cand.PathLen < old.PathLen)
}

// anchor produces the initial frontier for the first step.
func (e *Evaluator) anchor(s Step) map[xmlgraph.NodeID]Match {
	frontier := make(map[xmlgraph.NodeID]Match)
	e.anchorEach(s, func(n xmlgraph.NodeID, score float64) {
		m := Match{Node: n, Score: score}
		if old, ok := frontier[n]; !ok || replaces(m, old) {
			frontier[n] = m
		}
	})
	e.Stats.Anchored = len(frontier)
	return frontier
}

// anchorEach calls fn for every element the first step matches, once per
// tag expansion that matches it.
func (e *Evaluator) anchorEach(s Step, fn func(n xmlgraph.NodeID, score float64)) {
	coll := e.Index.Collection()
	p := newPred(s)
	add := func(n xmlgraph.NodeID, score float64, test pred) {
		// Without a test left, the element's text is not even loaded.
		if test.op == PredNone || test.matches(coll.Text(n)) {
			fn(n, score)
		}
	}
	for _, wt := range e.expansions(s) {
		switch {
		case s.Axis == Child && wt.Tag == "":
			// /*: all document roots.
			for d := 0; d < coll.NumDocs(); d++ {
				add(coll.Doc(xmlgraph.DocID(d)).Root, wt.Score, p)
			}
		case s.Axis == Child:
			// /tag: document roots with the tag.
			for d := 0; d < coll.NumDocs(); d++ {
				r := coll.Doc(xmlgraph.DocID(d)).Root
				if coll.Tag(r) == wt.Tag {
					add(r, wt.Score, p)
				}
			}
		case wt.Tag == "":
			// //*: every element.
			for n := 0; n < coll.NumNodes(); n++ {
				add(xmlgraph.NodeID(n), wt.Score, p)
			}
		default:
			nodes, rest := p.narrow(coll, wt.Tag)
			for _, n := range nodes {
				add(n, wt.Score, rest)
			}
		}
	}
}

// advance moves the frontier across one step.
func (e *Evaluator) advance(frontier map[xmlgraph.NodeID]Match, s Step) map[xmlgraph.NodeID]Match {
	e.Stats.Steps++
	coll := e.Index.Collection()
	p := newPred(s)
	next := make(map[xmlgraph.NodeID]Match)
	add := func(n xmlgraph.NodeID, score float64, pathLen int32) {
		if score < minScore || !p.matches(coll.Text(n)) {
			return
		}
		cand := Match{Node: n, Score: score, PathLen: pathLen}
		if old, ok := next[n]; !ok || replaces(cand, old) {
			next[n] = cand
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
				add(r.Node, score(base, r.Dist), m.PathLen+r.Dist)
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
					add(r.Node, score(invBase, r.Dist), m.PathLen+r.Dist)
					return true
				})
			}
		}
	}
	if e.canceled() {
		// The Cancel channel is threaded into every scan, so a cancel may
		// have cut the final scan short with no later loop iteration left
		// to notice it.
		e.Stats.Truncated = true
	}
	return next
}
