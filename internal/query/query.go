// Package query implements the path-expression language of the FliX paper
// and its evaluation on top of a flix.Index.
//
// The grammar follows the paper's notation (§1.1, §5): steps are separated
// by / (child axis) or // (descendants-or-self axis); a step is an element
// name, the wildcard *, or a name prefixed with ~ for ontology-based
// semantic vagueness; a step may carry a content predicate in brackets:
//
//	//movie[title~"Matrix"]//actor//movie
//	/dblp/article/author
//	//~movie//actor
//
// Supported predicates: [text="exact"] and [text~"substring"] (the latter
// is the paper's ≈ operator restricted to substring containment).
//
// Evaluation follows the XXL scoring model: results carry a relevance score
// that decays with path length (structural vagueness) and with ontology
// similarity (semantic vagueness).  The model is fixed: three constants
// and one score function in eval.go (`TestRankedScoringRecorded`).
//
// A `query.Evaluator` ranks matches by that score through one entry point,
// `query.Evaluator.EvaluateTopK`: with k <= 0 it returns the whole ranking,
// with k > 0 it runs the threshold algorithm of §3.1 over sorted distance
// access (topk.go).  The last step streams its candidates in growing
// distance bands through a resumable flix.Probe where the backend has one,
// and the scan stops only when the k-th score strictly exceeds every
// stream's bound, so its answer is exactly the first k of
// `query.Evaluator.ReferenceEvaluate`'s full ranking
// (`TestTopKMatchesReferenceTopK`, `FuzzEvaluateTopK`, `FuzzEvaluate` for
// k = 0); the benchmark times it as `query.topk_inproc_us`.  A cancelled
// evaluation returns a sound subset of that ranking
// (`TestCancelledRankingIsSound`).  `query.Evaluator.InverseScore` lets
// //-steps also match ancestors at a penalty (§1.1).
//
// The first step of a predicate query asks the collection's text
// dictionary for the elements whose text holds the word
// (xmlgraph.Collection.TextDict) instead of lowering every element's text:
// a needle that is non-empty after lowering and holds no ASCII whitespace
// cannot straddle two tokens, so the union of the postings of the tokens
// containing it is exactly the scan's match set.  An empty needle, one with
// whitespace, the wildcard tag, child-axis anchors, an unfrozen collection
// and every later step keep the scan (`TestAnchorDictMatchesScan`).
package query

import (
	"fmt"
	"strings"
)

// Axis is the relation between consecutive steps.
type Axis int

const (
	// Child is the / axis: direct successors in the data graph (tree
	// children and direct link targets, following the paper's view that
	// linked elements are treated like children).
	Child Axis = iota
	// Descendant is the // axis.
	Descendant
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	if a == Child {
		return "/"
	}
	return "//"
}

// PredOp is a content predicate operator.
type PredOp int

const (
	// PredNone means the step has no predicate.
	PredNone PredOp = iota
	// PredEq is [text="exact"].
	PredEq
	// PredContains is [text~"substring"] (case-insensitive).
	PredContains
)

// Step is one location step.
type Step struct {
	// Axis relates this step to the previous one.  The first step's axis
	// describes its anchoring: / matches document roots only, // matches
	// elements anywhere.
	Axis Axis
	// Tag is the element name; empty means the wildcard *.
	Tag string
	// Similar marks the ~name form: the ontology expands the tag.
	Similar bool
	// Op and Value form the optional content predicate.
	Op    PredOp
	Value string
}

// Query is a parsed path expression.
type Query struct {
	Steps []Step
}

// String renders the query back to its surface syntax.
func (q *Query) String() string {
	var b strings.Builder
	for _, s := range q.Steps {
		b.WriteString(s.Axis.String())
		if s.Similar {
			b.WriteByte('~')
		}
		if s.Tag == "" {
			b.WriteByte('*')
		} else {
			b.WriteString(s.Tag)
		}
		// Predicate values are rendered verbatim: the grammar has no
		// escape sequences, so a parsed value can never contain a
		// quote and round-trips exactly.
		switch s.Op {
		case PredEq:
			fmt.Fprintf(&b, `[text="%s"]`, s.Value)
		case PredContains:
			fmt.Fprintf(&b, `[text~"%s"]`, s.Value)
		}
	}
	return b.String()
}

// Relax returns a copy of the query with every child axis relaxed to the
// descendants-or-self axis — the structural vagueness transformation of
// §1.1 (movie/actor becomes movie//actor).
func (q *Query) Relax() *Query {
	out := &Query{Steps: make([]Step, len(q.Steps))}
	copy(out.Steps, q.Steps)
	for i := range out.Steps {
		out.Steps[i].Axis = Descendant
	}
	return out
}

// Parse parses a path expression.
func Parse(input string) (*Query, error) {
	p := &parser{in: input}
	q, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	return q, nil
}

type parser struct {
	in  string
	pos int
}

func (p *parser) parse() (*Query, error) {
	q := &Query{}
	if len(p.in) == 0 {
		return nil, fmt.Errorf("empty expression")
	}
	for p.pos < len(p.in) {
		axis, err := p.axis(len(q.Steps) == 0)
		if err != nil {
			return nil, err
		}
		step, err := p.step()
		if err != nil {
			return nil, err
		}
		step.Axis = axis
		q.Steps = append(q.Steps, step)
	}
	if len(q.Steps) == 0 {
		return nil, fmt.Errorf("no steps")
	}
	return q, nil
}

func (p *parser) axis(first bool) (Axis, error) {
	if !strings.HasPrefix(p.in[p.pos:], "/") {
		if first {
			// A bare leading name is shorthand for //name.
			return Descendant, nil
		}
		return 0, fmt.Errorf("position %d: expected / or //", p.pos)
	}
	p.pos++
	if strings.HasPrefix(p.in[p.pos:], "/") {
		p.pos++
		return Descendant, nil
	}
	return Child, nil
}

func (p *parser) step() (Step, error) {
	var s Step
	if p.pos < len(p.in) && p.in[p.pos] == '~' {
		s.Similar = true
		p.pos++
	}
	if p.pos < len(p.in) && p.in[p.pos] == '*' {
		if s.Similar {
			return s, fmt.Errorf("position %d: ~* is not meaningful", p.pos)
		}
		p.pos++
	} else {
		start := p.pos
		for p.pos < len(p.in) && isNameChar(p.in[p.pos]) {
			p.pos++
		}
		if p.pos == start {
			return s, fmt.Errorf("position %d: expected element name or *", p.pos)
		}
		s.Tag = p.in[start:p.pos]
	}
	if p.pos < len(p.in) && p.in[p.pos] == '[' {
		if err := p.predicate(&s); err != nil {
			return s, err
		}
	}
	return s, nil
}

func (p *parser) predicate(s *Step) error {
	p.pos++ // consume [
	if !strings.HasPrefix(p.in[p.pos:], "text") {
		return fmt.Errorf("position %d: only text predicates are supported", p.pos)
	}
	p.pos += len("text")
	if p.pos >= len(p.in) {
		return fmt.Errorf("truncated predicate")
	}
	switch p.in[p.pos] {
	case '=':
		s.Op = PredEq
	case '~':
		s.Op = PredContains
	default:
		return fmt.Errorf("position %d: expected = or ~", p.pos)
	}
	p.pos++
	if p.pos >= len(p.in) || p.in[p.pos] != '"' {
		return fmt.Errorf("position %d: expected quoted value", p.pos)
	}
	p.pos++
	end := strings.IndexByte(p.in[p.pos:], '"')
	if end < 0 {
		return fmt.Errorf("unterminated string in predicate")
	}
	s.Value = p.in[p.pos : p.pos+end]
	p.pos += end + 1
	if p.pos >= len(p.in) || p.in[p.pos] != ']' {
		return fmt.Errorf("position %d: expected ]", p.pos)
	}
	p.pos++
	return nil
}

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.' || c == ':'
}
