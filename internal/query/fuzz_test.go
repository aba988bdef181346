package query

import "testing"

// FuzzEvaluate drives every accepted query string through the full
// evaluation pipeline against a small fixed collection: evaluation must
// never panic, and the ranked matches must respect the evaluator's
// contract — scores in (0, 1], non-increasing order, valid nodes.
func FuzzEvaluate(f *testing.F) {
	for _, seed := range []string{
		"//movie//actor",
		"//~movie//~actor",
		`//movie[text~"Matrix"]//actor`,
		"/movie/cast/actor",
		"//*", "//x//y//z", "a",
		`//title[text="Matrix 3"]`,
		// Anchor predicates the text dictionary answers, and ones it leaves
		// to the scan (empty, whitespace, wildcard tag, child axis).
		`//title[text~"matrix"]`, `//title[text~"TRI"]`, `//~movie[text~""]`,
		`//title[text~"Matrix 3"]`, `//actor[text="Carrie-Anne Moss"]`,
		`//title[text="3"]`, `//*[text~"ee"]`, `/movie[text~"x"]`,
		"//name[text~\"\xff\"]", `//title[text~"Ma	t"]`,
	} {
		f.Add(seed)
	}
	e, _ := buildEval(f)
	e.MaxResults = 50
	f.Fuzz(func(t *testing.T, expr string) {
		q, err := Parse(expr)
		if err != nil {
			return
		}
		matches := e.Evaluate(q)
		if len(matches) > e.MaxResults {
			t.Fatalf("Evaluate(%q) returned %d matches, MaxResults %d", expr, len(matches), e.MaxResults)
		}
		coll := e.Index.Collection()
		for i, m := range matches {
			if m.Score <= 0 || m.Score > 1 {
				t.Fatalf("Evaluate(%q) match %d has score %v outside (0,1]", expr, i, m.Score)
			}
			if i > 0 && matches[i-1].Score < m.Score {
				t.Fatalf("Evaluate(%q) matches not sorted: score %v before %v", expr, matches[i-1].Score, m.Score)
			}
			if !coll.Valid(m.Node) {
				t.Fatalf("Evaluate(%q) match %d names invalid node %d", expr, i, m.Node)
			}
		}
	})
}

// FuzzEvaluateTopK cross-checks the optimized top-k evaluator against the
// frozen reference evaluator for every accepted query string and k: the
// answer must be exactly the first min(k, n) elements of the reference's
// full deterministic ranking, and an uncancelled run must never report
// truncation.
func FuzzEvaluateTopK(f *testing.F) {
	for _, seed := range []string{
		"//movie//actor",
		"//~movie//~actor",
		`//movie[text~"Matrix"]//actor`,
		"/movie/cast/actor",
		"//*", "//x//y//z", "a",
		"//movie", "//cast//*",
		`//title[text~"matrix"]`, `//title[text~"TRI"]`, `//~movie[text~""]`,
		`//title[text~"Matrix 3"]`, `//actor[text="Carrie-Anne Moss"]`,
		`//title[text="3"]`, `//*[text~"ee"]`, `/movie[text~"x"]`,
		"//name[text~\"\xff\"]", `//title[text~"s"]//actor`,
	} {
		f.Add(seed, 1)
		f.Add(seed, 10)
		f.Add(seed, 1000)
	}
	e, _ := buildEval(f)
	f.Fuzz(func(t *testing.T, expr string, k int) {
		q, err := Parse(expr)
		if err != nil {
			return
		}
		if k < 0 {
			k = -k
		}
		k %= 2000
		got := e.EvaluateTopK(q, k)
		full := e.ReferenceEvaluate(q)
		want := full
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("EvaluateTopK(%q, %d) returned %d matches, reference prefix has %d",
				expr, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("EvaluateTopK(%q, %d) result %d = %+v, reference %+v",
					expr, k, i, got[i], want[i])
			}
		}
		// e.Stats now holds the reference run's stats; re-run the optimized
		// path last so the truncation check reads its flag.
		e.EvaluateTopK(q, k)
		if e.Stats.Truncated {
			t.Fatalf("EvaluateTopK(%q, %d) reported truncation without a cancel", expr, k)
		}
	})
}

// FuzzParse checks that the parser never panics and that every accepted
// expression round-trips through String.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"//movie//actor",
		"/dblp/article/author",
		`//~movie[text~"Matrix"]//actor`,
		"//a//*",
		"a/b",
		"//",
		"~",
		`//x[text="a\"b"]`,
		"//x[", "//x[text", "//x[text=", `//x[text="`, `//x[text="v"`,
		"////", "/*/*", "//~*",
		"0[text~\"\xd1\"]", // regression: invalid UTF-8 in a predicate value must round-trip
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		q, err := Parse(expr)
		if err != nil {
			return
		}
		if len(q.Steps) == 0 {
			t.Fatalf("Parse(%q) accepted an empty query", expr)
		}
		// Accepted queries render and re-parse to the same structure.
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("reparse of %q (from %q) failed: %v", rendered, expr, err)
		}
		if len(q.Steps) != len(q2.Steps) {
			t.Fatalf("round trip changed step count: %q -> %q", expr, rendered)
		}
		for i := range q.Steps {
			a, b := q.Steps[i], q2.Steps[i]
			if a.Axis != b.Axis || a.Tag != b.Tag || a.Similar != b.Similar || a.Op != b.Op || a.Value != b.Value {
				t.Fatalf("round trip changed step %d: %+v vs %+v", i, a, b)
			}
		}
	})
}
