package ontology

import (
	"math"
	"strings"
	"testing"
)

func movieOntology(t *testing.T) *Ontology {
	t.Helper()
	o := New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(o.AddSimilarity("movie", "science-fiction", 0.8))
	must(o.AddSimilarity("movie", "film", 0.9))
	must(o.AddSimilarity("science-fiction", "space-opera", 0.7))
	must(o.AddSimilarity("actor", "performer", 0.85))
	return o
}

func TestSimilarIncludesSelf(t *testing.T) {
	o := movieOntology(t)
	sims := o.Similar("movie", 0.1)
	if len(sims) == 0 || sims[0].Tag != "movie" || sims[0].Score != 1 {
		t.Fatalf("Similar(movie) = %v", sims)
	}
}

func TestSimilarTransitive(t *testing.T) {
	o := movieOntology(t)
	// movie -> science-fiction -> space-opera: 0.8 * 0.7 = 0.56.
	if got := o.Score("movie", "space-opera"); math.Abs(got-0.56) > 1e-9 {
		t.Errorf("Score(movie, space-opera) = %g, want 0.56", got)
	}
}

func TestSimilarThreshold(t *testing.T) {
	o := movieOntology(t)
	sims := o.Similar("movie", 0.75)
	for _, wt := range sims {
		if wt.Score < 0.75 {
			t.Errorf("below threshold: %v", wt)
		}
	}
	// film (0.9) and science-fiction (0.8) qualify, space-opera (0.56)
	// does not.
	if len(sims) != 3 {
		t.Errorf("Similar(movie, 0.75) = %v", sims)
	}
}

func TestSimilarOrdering(t *testing.T) {
	o := movieOntology(t)
	sims := o.Similar("movie", 0.1)
	for i := 1; i < len(sims); i++ {
		if sims[i].Score > sims[i-1].Score {
			t.Errorf("not sorted: %v", sims)
		}
	}
}

func TestScoreUnrelated(t *testing.T) {
	o := movieOntology(t)
	if got := o.Score("movie", "actor"); got != 0 {
		t.Errorf("Score(movie, actor) = %g", got)
	}
	if got := o.Score("movie", "movie"); got != 1 {
		t.Errorf("self score = %g", got)
	}
}

func TestBestPathWins(t *testing.T) {
	o := New()
	_ = o.AddSimilarity("a", "b", 0.5)
	_ = o.AddSimilarity("a", "c", 0.9)
	_ = o.AddSimilarity("c", "b", 0.9)
	// Direct a-b is 0.5; via c it is 0.81.
	if got := o.Score("a", "b"); math.Abs(got-0.81) > 1e-9 {
		t.Errorf("Score(a,b) = %g, want 0.81", got)
	}
}

func TestAddSimilarityValidation(t *testing.T) {
	o := New()
	if err := o.AddSimilarity("a", "b", 0); err == nil {
		t.Error("score 0 accepted")
	}
	if err := o.AddSimilarity("a", "b", 1); err == nil {
		t.Error("score 1 accepted")
	}
	if err := o.AddSimilarity("a", "a", 0.5); err == nil {
		t.Error("self edge accepted")
	}
}

func TestDuplicateKeepsHigher(t *testing.T) {
	o := New()
	_ = o.AddSimilarity("a", "b", 0.3)
	_ = o.AddSimilarity("a", "b", 0.6)
	_ = o.AddSimilarity("a", "b", 0.4)
	if got := o.Score("a", "b"); got != 0.6 {
		t.Errorf("Score = %g, want 0.6", got)
	}
}

func TestParse(t *testing.T) {
	o, err := Parse(`
# movies
movie science-fiction 0.8
movie film 0.9
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Score("movie", "film"); got != 0.9 {
		t.Errorf("parsed score = %g", got)
	}
	if tags := o.Tags(); len(tags) != 3 {
		t.Errorf("Tags = %v", tags)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"movie film",      // missing score
		"movie film xx",   // bad score
		"movie film 2.0",  // out of range
		"movie movie 0.5", // self edge
		"a b 0.5 extra",   // too many fields
		"a b 0.5abc",      // trailing garbage after the score
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestParseRefusesNaN(t *testing.T) {
	for _, line := range []string{"movie film NaN", "movie film nan"} {
		if _, err := Parse(line); err == nil || !strings.Contains(err.Error(), "out of (0, 1)") {
			t.Errorf("Parse(%q) = %v, want the out-of-range error", line, err)
		}
	}
}

// FuzzParseOntology: Parse either refuses its input, or every tag the
// ontology mentions is similar to some other tag, and every score Similar
// yields lies in (0, 1].  A score Parse accepts but AddSimilarity cannot
// record, such as NaN, would leave a tag with no neighbour.
func FuzzParseOntology(f *testing.F) {
	f.Add("a b NaN")
	f.Add("# movies\nmovie film 0.9\nfilm movie 0.8\n\nfilm cinema 1e-300\n")
	f.Add("a b 0.5 extra")
	f.Add("a b 0.5abc")
	f.Fuzz(func(t *testing.T, text string) {
		o, err := Parse(text)
		if err != nil {
			return
		}
		for _, tag := range o.Tags() {
			sims := o.Similar(tag, math.SmallestNonzeroFloat64)
			if len(sims) < 2 || sims[0] != (WeightedTag{Tag: tag, Score: 1}) {
				t.Fatalf("Parse(%q): Similar(%q) = %v, want %q at 1 and a neighbour", text, tag, sims, tag)
			}
			for _, wt := range sims {
				if !(wt.Score > 0 && wt.Score <= 1) {
					t.Fatalf("Parse(%q): Similar(%q) yields %q at %g", text, tag, wt.Tag, wt.Score)
				}
			}
		}
	})
}
