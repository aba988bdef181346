package query

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"repro/internal/dblp"
	"repro/internal/flix"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

func TestEvaluateTopKMatchesFull(t *testing.T) {
	e, _ := buildEval(t)
	for _, expr := range []string{
		"//~movie//actor",
		"//movie//*",
		"//~movie//title",
		"//movie",
	} {
		q := mustParse(t, expr)
		full := e.ReferenceEvaluate(q)
		for _, k := range []int{1, 2, 5, 100} {
			got := e.EvaluateTopK(q, k)
			want := full
			if len(want) > k {
				want = want[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d results, want %d (%v vs %v)", expr, k, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i].Node != want[i].Node || got[i].Score != want[i].Score {
					t.Fatalf("%s k=%d result %d: %+v vs %+v", expr, k, i, got[i], want[i])
				}
			}
		}
		// k = 0 is the whole ranking.
		assertExactPrefix(t, expr+" k=0", e.EvaluateTopK(q, 0), full, len(full))
	}
}

func TestEvaluateTopKChildAxis(t *testing.T) {
	e, ids := buildEval(t)
	got := e.EvaluateTopK(mustParse(t, "/movie/title"), 3)
	if len(got) != 1 || got[0].Node != ids["title1"] {
		t.Errorf("top-k child axis = %v", got)
	}
}

func TestInverseScore(t *testing.T) {
	e, ids := buildEval(t)
	// actor//movie: no movie is a descendant of an actor...
	got := e.EvaluateTopK(mustParse(t, "//actor//movie"), 0)
	if len(got) != 0 {
		t.Fatalf("forward-only: %v", got)
	}
	// ...but with inverse matching, the containing movie qualifies at a
	// penalty.
	e.InverseScore = 0.5
	got = e.EvaluateTopK(mustParse(t, "//actor//movie"), 0)
	if len(got) != 1 || got[0].Node != ids["movie1"] {
		t.Fatalf("inverse: %v", got)
	}
	if got[0].Score >= 0.5 {
		t.Errorf("inverse score %g should be penalized below 0.5", got[0].Score)
	}
	// Forward matches are unaffected and rank above inverse ones.
	fwd := e.EvaluateTopK(mustParse(t, "//movie//actor"), 0)
	if len(fwd) == 0 || fwd[0].Score != 0.8 {
		t.Errorf("forward with inverse enabled: %v", fwd)
	}
}

// TestPropertyTopKAgainstFull: top-k must equal the k-prefix of the full
// ranking on larger random-ish data.
func TestPropertyTopKAgainstFull(t *testing.T) {
	corpus := dblp.Generate(dblp.Scaled(150))
	coll := corpus.BuildGraph()
	ix, err := flix.Build(coll, flix.Config{Kind: flix.UnconnectedHOPI, PartitionSize: 600})
	if err != nil {
		t.Fatal(err)
	}
	e := &Evaluator{Index: ix}
	exprs := []string{
		"//inproceedings//article",
		"//article//cite",
		"//inproceedings//author",
	}
	cfg := &quick.Config{MaxCount: 12}
	err = quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := mustParse(t, exprs[rng.Intn(len(exprs))])
		k := 1 + rng.Intn(20)
		full := e.ReferenceEvaluate(q)
		got := e.EvaluateTopK(q, k)
		want := full
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			return false
		}
		// Scores must match position by position (node ties may permute
		// among equal scores; compare scores and set membership).
		wantSet := make(map[xmlgraph.NodeID]float64)
		for _, m := range want {
			wantSet[m.Node] = m.Score
		}
		for i := range got {
			if got[i].Score != want[i].Score {
				return false
			}
			if s, ok := wantSet[got[i].Node]; !ok || s != got[i].Score {
				// Allow a different node only when an equal score
				// exists in the full ranking beyond the cut.
				found := false
				for _, m := range full {
					if m.Node == got[i].Node && m.Score == got[i].Score {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestRankedOpenProbeMemory bounds what one cold ranked query (pools emptied,
// collector off) allocates per concurrently open probe, on few large meta
// documents and on one per publication: state sized to the collection, not to
// the probe's own work (2–3 KB), is multiplied by thousands of open probes.
func TestRankedOpenProbeMemory(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	coll := dblp.Generate(dblp.Scaled(500)).BuildGraph()
	q := mustParse(t, "//inproceedings//article")
	for _, cfg := range []flix.Config{{Kind: flix.Hybrid, PartitionSize: 5000}, {Kind: flix.Naive}} {
		ix, err := flix.Build(coll, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := &Evaluator{Index: ix}
		runtime.GC() // two collections empty every sync.Pool (live, then victim cache)
		runtime.GC()
		old := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.EvaluateTopK(q, 10)
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(old)
		open := uint64(e.Stats.PeakOpen)
		if per := (after.TotalAlloc - before.TotalAlloc) / max(open, 1); open < 100 || per > 4096 {
			t.Errorf("%s: %d probes open at once (want ≥ 100), %d B each (budget 4096)", ix.Describe(), open, per)
		}
	}
}
