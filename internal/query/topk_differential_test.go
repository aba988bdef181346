package query

// The differential top-k suite: EvaluateTopK must return exactly the first
// min(k, n) elements of the frozen reference evaluator's full deterministic
// ranking — same nodes, same scores, same path lengths, same order — for
// every testutil graph family, every Registry strategy, serial and parallel
// builds, and k below, at and beyond the result count.  Plus the
// cancellation and single-step fast-path regression tests.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/apex"
	"repro/internal/dblp"
	"repro/internal/flix"
	"repro/internal/hopi"
	"repro/internal/meta"
	"repro/internal/tc"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// The differential suite runs over the ablation and oracle strategies too.
func init() {
	meta.Registry["hopi-dc"] = hopi.DCStrategy(20000)
	meta.Registry["a1"] = apex.StrategyK(1)
	meta.Registry["a2"] = apex.StrategyK(2)
	meta.Registry["tc"] = tc.Strategy
}

// registryStrategies lists every Path Indexing Strategy name, in stable
// order for reproducible subtest names.
func registryStrategies() []string {
	names := make([]string, 0, len(meta.Registry))
	for name := range meta.Registry {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// assertExactPrefix fails unless got is element-for-element the first
// min(k, len(full)) entries of full.
func assertExactPrefix(t *testing.T, label string, got, full []Match, k int) {
	t.Helper()
	want := full
	if len(want) > k {
		want = want[:k]
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\n got %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestDifferentialTopK(t *testing.T) {
	exprs := []string{"//a//b", "//b//*", "//a//c//e", "//e//d"}
	for _, family := range testutil.Families() {
		for seed := int64(1); seed <= 2; seed++ {
			coll := testutil.Generate(family, seed, 6, 30, 12)
			for _, strategy := range registryStrategies() {
				// Infeasible choices (ppo on a non-forest meta document)
				// fall back to the selector's heuristic inside the build.
				cfg := flix.Config{Kind: flix.Hybrid, PartitionSize: 40, Strategy: strategy}
				for _, par := range []int{1, 4} {
					ix, err := flix.BuildWithOptions(coll, cfg, flix.BuildOptions{Parallelism: par})
					if err != nil {
						t.Fatalf("%s/%d %s p%d: %v", family, seed, strategy, par, err)
					}
					e := &Evaluator{Index: ix}
					for _, expr := range exprs {
						q := mustParse(t, expr)
						full := e.ReferenceEvaluate(q)
						for _, k := range []int{1, 5, 100, len(full) + 7} {
							got := e.EvaluateTopK(q, k)
							label := fmt.Sprintf("%s/%d %s p%d %s k=%d",
								family, seed, strategy, par, expr, k)
							assertExactPrefix(t, label, got, full, k)
						}
					}
				}
			}
		}
	}
}

// TestDifferentialTopKInverse covers the InverseScore ancestor streams the
// old top-k evaluator silently dropped, on every family and on a DBLP corpus.
// There the streams cross many meta documents, so they come in the exact
// (dist, node) order the threshold needs only because it asks for it.
func TestDifferentialTopKInverse(t *testing.T) {
	for _, family := range testutil.Families() {
		coll := testutil.Generate(family, 3, 6, 30, 12)
		ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 40})
		if err != nil {
			t.Fatal(err)
		}
		e := &Evaluator{Index: ix, InverseScore: 0.5}
		for _, expr := range []string{"//a//b", "//e//d"} {
			q := mustParse(t, expr)
			full := e.ReferenceEvaluate(q)
			for _, k := range []int{1, 5, len(full) + 1} {
				got := e.EvaluateTopK(q, k)
				assertExactPrefix(t, fmt.Sprintf("%s %s k=%d", family, expr, k), got, full, k)
			}
		}
	}
	coll := dblp.Generate(dblp.Scaled(400)).BuildGraph()
	q := mustParse(t, "//author//cite")
	for _, size := range []int{200, 2000} {
		ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: size})
		if err != nil {
			t.Fatal(err)
		}
		e := &Evaluator{Index: ix, InverseScore: 0.5}
		full := e.ReferenceEvaluate(q)
		for _, k := range []int{3, 10, 50} {
			assertExactPrefix(t, fmt.Sprintf("dblp Hybrid/%d k=%d", size, k), e.EvaluateTopK(q, k), full, k)
		}
	}
}

// TestTopKGrowingKAppends is the quick property: growing k only appends —
// EvaluateTopK(q, k1) is a strict prefix of EvaluateTopK(q, k2) for
// k1 <= k2.
func TestTopKGrowingKAppends(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 7, 8, 40, 20)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	e := &Evaluator{Index: ix}
	exprs := []string{"//a//b", "//b//*", "//c//d"}
	prop := func(ei, k1, k2 uint8) bool {
		q := mustParse(t, exprs[int(ei)%len(exprs)])
		lo, hi := int(k1)%40+1, int(k2)%40+1
		if lo > hi {
			lo, hi = hi, lo
		}
		small := e.EvaluateTopK(q, lo)
		big := e.EvaluateTopK(q, hi)
		if len(small) > len(big) {
			return false
		}
		for i := range small {
			if small[i] != big[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// cancelAfterBackend wraps an index and trips a cancel channel after a
// fixed number of last-step stream openings, making mid-stream cancellation
// deterministic.  It forwards the banded-probe capability, so the optimized
// banded path is the one being cancelled.
type cancelAfterBackend struct {
	ix     *flix.Index
	after  int
	opened int
	cancel chan struct{}
}

func (b *cancelAfterBackend) Collection() *xmlgraph.Collection { return b.ix.Collection() }

func (b *cancelAfterBackend) Descendants(start xmlgraph.NodeID, tag string, opts flix.Options, fn flix.Emit) {
	b.trip()
	b.ix.Descendants(start, tag, opts, fn)
}

func (b *cancelAfterBackend) Ancestors(start xmlgraph.NodeID, tag string, opts flix.Options, fn flix.Emit) {
	b.ix.Ancestors(start, tag, opts, fn)
}

func (b *cancelAfterBackend) StartProbe(p *flix.Probe, start xmlgraph.NodeID, tag string, opts flix.Options) {
	b.trip()
	b.ix.StartProbe(p, start, tag, opts)
}

func (b *cancelAfterBackend) trip() {
	b.opened++
	if b.opened == b.after {
		close(b.cancel)
	}
}

// TestEvaluateTopKCancelMidStream mirrors flix's cancel_test for the ranked
// evaluator: a cancellation between stream openings must surface as
// Stats.Truncated instead of returning a silently complete-looking answer.
func TestEvaluateTopKCancelMidStream(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 5, 10, 40, 25)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	q := mustParse(t, "//a//b")
	oracle := (&Evaluator{Index: ix}).ReferenceEvaluate(q)
	if len(oracle) == 0 {
		t.Fatal("bad fixture: no results")
	}

	be := &cancelAfterBackend{ix: ix, after: 2, cancel: make(chan struct{})}
	e := &Evaluator{Index: be, Cancel: be.cancel}
	got := e.EvaluateTopK(q, len(oracle))
	if !e.Stats.Truncated {
		t.Fatal("cancel mid-stream not surfaced in Stats.Truncated")
	}
	if len(got) >= len(oracle) {
		t.Fatalf("truncated answer has %d results, full has %d", len(got), len(oracle))
	}

	// Pre-tripped cancel: still truncated, not an error.
	done := make(chan struct{})
	close(done)
	e2 := &Evaluator{Index: ix, Cancel: done}
	e2.EvaluateTopK(q, 5)
	if !e2.Stats.Truncated {
		t.Fatal("pre-cancelled evaluation not marked truncated")
	}

	// And without any cancellation the flag stays clear.
	e3 := &Evaluator{Index: ix}
	e3.EvaluateTopK(q, 5)
	if e3.Stats.Truncated {
		t.Fatal("uncancelled evaluation marked truncated")
	}
}

// TestEvaluateTopKSingleStepFastPath is the regression test for the
// delegating fast path: the ordering is the exact sortMatches prefix, and
// Stats is reset like the streamed path.
func TestEvaluateTopKSingleStepFastPath(t *testing.T) {
	e, _ := buildEval(t)
	q := mustParse(t, "//actor")
	full := e.ReferenceEvaluate(q)
	if len(full) < 2 {
		t.Fatalf("bad fixture: %d actors", len(full))
	}

	e.Stats = EvalStats{Steps: 99, Scans: 99, Truncated: true} // stale garbage
	got := e.EvaluateTopK(q, len(full))
	assertExactPrefix(t, "single step k=all", got, full, len(full))
	if e.Stats.Steps != 0 || e.Stats.Truncated {
		t.Fatalf("stale stats survived the fast path: %+v", e.Stats)
	}
	if e.Stats.Anchored == 0 {
		t.Fatalf("fast path did not record stats: %+v", e.Stats)
	}

	got = e.EvaluateTopK(q, 2)
	assertExactPrefix(t, "single step k=2", got, full, 2)

	// A similarity expansion on the fast path (ontology-backed) as well.
	sq := mustParse(t, "//~movie")
	sfull := e.ReferenceEvaluate(sq)
	assertExactPrefix(t, "single step ~movie", e.EvaluateTopK(sq, 3), sfull, 3)
}

// TestTopKMatchesReferenceTopK pins the frozen baseline itself: on ties the
// old evaluator resolved per-node winners nondeterministically, but the set
// of (node, score) pairs at each k must agree with the optimized path when
// no ties are in play, which the movie fixture guarantees for these
// queries.
func TestTopKMatchesReferenceTopK(t *testing.T) {
	e, _ := buildEval(t)
	for _, expr := range []string{"//movie//actor", "//~movie//title"} {
		q := mustParse(t, expr)
		for _, k := range []int{1, 3, 50} {
			got := e.EvaluateTopK(q, k)
			want := e.ReferenceEvaluateTopK(q, k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d vs reference %d", expr, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Node != want[i].Node || got[i].Score != want[i].Score {
					t.Fatalf("%s k=%d result %d: %+v vs reference %+v", expr, k, i, got[i], want[i])
				}
			}
		}
	}
}
