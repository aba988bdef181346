package query

import (
	"fmt"
	"testing"

	"repro/internal/flix"
	"repro/internal/xmlgraph"
)

// cancelOnFirstScan wraps an index and closes cancel on its first
// descendant scan: as the scan starts when early is set, so that the scan
// itself stops at once, else once it has finished.  It offers no banded
// probes, so top-k streams fetch through Descendants as on the
// scatter-gather router.
type cancelOnFirstScan struct {
	ix     *flix.Index
	cancel chan struct{}
	early  bool
	scans  int
}

func (b *cancelOnFirstScan) Collection() *xmlgraph.Collection { return b.ix.Collection() }

func (b *cancelOnFirstScan) Descendants(start xmlgraph.NodeID, tag string, opts flix.Options, fn flix.Emit) {
	b.scans++
	if b.early && b.scans == 1 {
		close(b.cancel)
	}
	b.ix.Descendants(start, tag, opts, fn)
	if !b.early && b.scans == 1 {
		close(b.cancel)
	}
}

func (b *cancelOnFirstScan) Ancestors(start xmlgraph.NodeID, tag string, opts flix.Options, fn flix.Emit) {
	b.ix.Ancestors(start, tag, opts, fn)
}

// TestCancelledRankingIsSound: a cancelled ranked evaluation, bounded or
// not, may miss matches but must not invent any.  Every node it returns is
// in the uncancelled reference ranking with a score no higher than there,
// and Stats.Truncated says the answer may be incomplete.  Cancelling before
// the last step must not hand back the previous step's frontier (a movie or
// cast element for an actor query).
func TestCancelledRankingIsSound(t *testing.T) {
	base, _ := buildEval(t)
	ix := base.Index.(*flix.Index)
	for _, expr := range []string{"//movie//actor", "//movie//cast//actor", "//~movie//cast//actor"} {
		q := mustParse(t, expr)
		ref := map[xmlgraph.NodeID]float64{}
		for _, m := range base.ReferenceEvaluate(q) {
			ref[m.Node] = m.Score
		}
		for _, k := range []int{0, 1, 10} {
			cases := map[string]func() *Evaluator{
				"closed before the call": func() *Evaluator {
					done := make(chan struct{})
					close(done)
					return &Evaluator{Index: ix, Ontology: base.Ontology, Cancel: done}
				},
				"closed as the first scan starts": func() *Evaluator {
					be := &cancelOnFirstScan{ix: ix, cancel: make(chan struct{}), early: true}
					return &Evaluator{Index: be, Ontology: base.Ontology, Cancel: be.cancel}
				},
				"closed after the first scan": func() *Evaluator {
					be := &cancelOnFirstScan{ix: ix, cancel: make(chan struct{})}
					return &Evaluator{Index: be, Ontology: base.Ontology, Cancel: be.cancel}
				},
			}
			for name, newEval := range cases {
				label := fmt.Sprintf("%s k=%d, cancel %s", expr, k, name)
				e := newEval()
				got := e.EvaluateTopK(q, k)
				if !e.Stats.Truncated {
					t.Errorf("%s: Stats.Truncated not set", label)
				}
				if k > 0 && len(got) > k {
					t.Errorf("%s: %d matches", label, len(got))
				}
				for _, m := range got {
					want, ok := ref[m.Node]
					if !ok {
						t.Errorf("%s: <%s> %d is not in the ranking", label, ix.Collection().Tag(m.Node), m.Node)
					} else if m.Score > want {
						t.Errorf("%s: node %d scores %g, above its reference %g", label, m.Node, m.Score, want)
					}
				}
			}
		}
	}
}
