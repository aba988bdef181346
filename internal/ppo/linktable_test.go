package ppo_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dblp"
	"repro/internal/lgraph"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/pathindex"
	"repro/internal/ppo"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// linkCase is one forest with runtime links over it: the links of
// sources[i] are first[i] to first[i+1]-1, link k leading to to[k].
type linkCase struct {
	name    string
	g       *lgraph.LGraph
	sources []int32
	first   []int32
	to      []int32
}

// familyForests returns the forest meta documents of the testutil families,
// with their runtime links (possibly none), under the decompositions that
// produce them.
func familyForests() []linkCase {
	var out []linkCase
	for _, fam := range testutil.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			c := testutil.Generate(fam, seed, 12, 20, 25)
			out = appendForests(out, fmt.Sprintf("%s-%d", fam, seed), c, partition.Singleton(c), partition.TreePartitions(c), partition.Hybrid(c, 40, 2))
		}
	}
	return out
}

// appendForests appends the forest meta documents of c under each of parts.
func appendForests(out []linkCase, name string, c *xmlgraph.Collection, parts ...*partition.Result) []linkCase {
	for pi, r := range parts {
		for _, md := range meta.Build(c, r.Assignment(c)).Metas {
			if md.Graph.IsForest() {
				to := make([]int32, len(md.OutLinks))
				for k, l := range md.OutLinks {
					to[k] = int32(l.To)
				}
				out = append(out, linkCase{fmt.Sprintf("%s/%d/meta%d", name, pi, md.ID), md.Graph, md.LinkSources, md.LinkStart, to})
			}
		}
	}
	return out
}

// forestCases returns the PPO-indexable meta documents with link sources of
// the testutil families and of a DBLP extract.
func forestCases() []linkCase {
	c := dblp.Generate(dblp.Scaled(400)).BuildGraph()
	all := appendForests(familyForests(), "dblp", c, partition.Singleton(c), partition.Hybrid(c, 5000, 2))
	return slices.DeleteFunc(all, func(lc linkCase) bool { return len(lc.sources) == 0 })
}

// randomForest builds a random forest of n nodes whose preorder is not its
// node order: children hang under random earlier nodes.
func randomForest(rng *rand.Rand, n int) *lgraph.LGraph {
	b := lgraph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode("a")
		if i > 0 && rng.Intn(6) != 0 {
			b.AddEdge(int32(rng.Intn(i)), int32(i))
		}
	}
	return b.Finish()
}

// withLinks gives every source in the ascending list sources 0 to 3 links to
// random targets.
func withLinks(rng *rand.Rand, name string, g *lgraph.LGraph, sources []int32) linkCase {
	lc := linkCase{name: name, g: g, sources: sources, first: make([]int32, 1, len(sources)+1)}
	for range sources {
		for range rng.Intn(4) {
			lc.to = append(lc.to, rng.Int31())
		}
		lc.first = append(lc.first, int32(len(lc.to)))
	}
	return lc
}

// randomCase builds a random forest with every node a link source with
// probability density/256, so link sources' preorder ranks are out of source
// order and the rank directory spans many words when the forest is large.
func randomCase(seed int64, n int, density uint8) linkCase {
	rng := rand.New(rand.NewSource(seed))
	g := randomForest(rng, n)
	var sources []int32
	for i := 0; i < n; i++ {
		if rng.Intn(256) < int(density) {
			sources = append(sources, int32(i))
		}
	}
	return withLinks(rng, fmt.Sprintf("random-%d-%d-%d", seed, n, density), g, sources)
}

// boundaryCase builds a random forest of n nodes, n a multiple of 64, whose
// link sources hold the ranks next to the rank directory's word boundaries —
// 0, 63, 64 and n-1 — and a few random ones.
func boundaryCase(tb testing.TB, seed int64, n int) linkCase {
	rng := rand.New(rand.NewSource(seed))
	g := randomForest(rng, n)
	idx, err := ppo.Build(g)
	if err != nil {
		tb.Fatal(err)
	}
	ranks := []int32{0, 63, 64, int32(n - 1), int32(n - 2), rng.Int31n(int32(n)), rng.Int31n(int32(n))}
	var sources []int32
	for y := int32(0); int(y) < n; y++ {
		if slices.Contains(ranks, idx.Region(y).Lo) {
			sources = append(sources, y)
		}
	}
	return withLinks(rng, fmt.Sprintf("boundary-%d-%d", seed, n), g, sources)
}

// regionIndex is a PPO view: its probes and its region encoding.
type regionIndex interface {
	pathindex.Index
	pathindex.Regioner
}

// linkViews returns the heap index over g and its raw-mapped and compressed
// snapshot views.
func linkViews(tb testing.TB, g *lgraph.LGraph) map[string]regionIndex {
	tb.Helper()
	idx, err := ppo.Build(g)
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := storage.EncodeSectionBody(idx.EncodeSection)
	if err != nil {
		tb.Fatal(err)
	}
	mapped, err := ppo.OpenSection(g, raw)
	if err != nil {
		tb.Fatal(err)
	}
	packed, err := storage.EncodeSectionBody(idx.EncodeCompressedSection)
	if err != nil {
		tb.Fatal(err)
	}
	compressed, err := ppo.OpenCompressedSection(g, packed)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]regionIndex{"heap": idx, "mapped": mapped.(regionIndex), "compressed": compressed.(regionIndex)}
}

// hop is one link a sweep takes: its target and the distance of its source.
type hop struct{ to, d int32 }

// skipSets returns skip-span sets for a sweep from x: none; the regions of a
// few of x's descendants, each kept only when no region kept before overlaps
// it — what the evaluator hands over; and ascending disjoint intervals cut
// anywhere in the forest, inside x's region or not.
func skipSets(rng *rand.Rand, rg pathindex.Regioner, x int32, n int) [][]pathindex.Span {
	region := rg.Region(x)
	var nested []pathindex.Span
	for range rng.Intn(4) {
		sp := rg.Region(region.Lo + rng.Int31n(region.Hi-region.Lo))
		if !slices.ContainsFunc(nested, func(o pathindex.Span) bool { return o.Lo < sp.Hi && sp.Lo < o.Hi }) {
			nested = append(nested, sp)
		}
	}
	slices.SortFunc(nested, func(a, b pathindex.Span) int { return int(a.Lo - b.Lo) })
	cuts := make([]int32, 2*rng.Intn(4))
	for i := range cuts {
		cuts[i] = rng.Int31n(int32(n) + 1)
	}
	slices.Sort(cuts)
	var cut []pathindex.Span
	for i := 0; i < len(cuts); i += 2 {
		if cuts[i] < cuts[i+1] && (len(cut) == 0 || cut[len(cut)-1].Hi < cuts[i]) {
			cut = append(cut, pathindex.Span{Lo: cuts[i], Hi: cuts[i+1]})
		}
	}
	return [][]pathindex.Span{nil, nested, cut}
}

// checkLinkTable holds the LinkTable over every view of lc to the per-source
// Distance sweep: from every element and under random skip-span sets, the
// table's ranges hold exactly the links of the sweep's hits whose preorder
// rank lies in no skipped span, each once — sources in ascending rank, one
// source's links in the order given — with the sweep's distance.  The ranges
// are ascending, non-empty and at most one more than the skipped spans, and
// First(r) counts the links of the sources ranked below r for every rank.
func checkLinkTable(tb testing.TB, lc linkCase, seed int64) {
	if len(lc.sources) == 0 {
		return // no table: the evaluator has nothing to follow
	}
	rng := rand.New(rand.NewSource(seed))
	n := lc.g.NumNodes()
	for view, idx := range linkViews(tb, lc.g) {
		lt := pathindex.NewLinkTable(idx, lc.sources, lc.first, func(k int) int32 { return lc.to[k] })
		rank := func(i int) int32 { return idx.Region(lc.sources[i]).Lo }
		for r := int32(0); int(r) <= n; r++ {
			below := int32(0)
			for i := range lc.sources {
				if rank(i) < r {
					below += lc.first[i+1] - lc.first[i]
				}
			}
			if got := lt.First(r); got != below {
				tb.Fatalf("%s %s: First(%d) = %d, %d links lie below rank %d", lc.name, view, r, got, below, r)
			}
		}
		to, dep := lt.Links()
		for x := int32(0); int(x) < n; x++ {
			var hits [][2]int32
			pathindex.LinkDistances(idx, x, lc.sources, func(i int, d int32) bool {
				hits = append(hits, [2]int32{int32(i), d})
				return true
			})
			slices.SortFunc(hits, func(a, b [2]int32) int { return int(rank(int(a[0])) - rank(int(b[0]))) })
			for _, skip := range skipSets(rng, idx, x, n) {
				var want []hop
				for _, hit := range hits {
					r := rank(int(hit[0]))
					if slices.ContainsFunc(skip, func(sp pathindex.Span) bool { return sp.Lo <= r && r < sp.Hi }) {
						continue
					}
					for _, t := range lc.to[lc.first[hit[0]]:lc.first[hit[0]+1]] {
						want = append(want, hop{t, hit[1]})
					}
				}
				runs := lt.Sweep(x, skip, nil)
				var got []hop
				for k, run := range runs {
					if run.Lo >= run.Hi || k > 0 && run.Lo < runs[k-1].Hi {
						tb.Fatalf("%s %s: from %d skipping %v the ranges %v are not ascending and non-empty", lc.name, view, x, skip, runs)
					}
					for j := run.Lo; j < run.Hi; j++ {
						got = append(got, hop{to[j], dep[j] - lt.Depth(x)})
					}
				}
				if len(runs) > len(skip)+1 {
					tb.Fatalf("%s %s: from %d skipping %v the sweep takes %d ranges", lc.name, view, x, skip, len(runs))
				}
				if !slices.Equal(got, want) {
					tb.Fatalf("%s %s: from %d skipping %v the table takes %v, the Distance sweep %v",
						lc.name, view, x, skip, got, want)
				}
			}
		}
	}
}

// TestLinkTableMatchesDistanceSweep is the differential proof of the link
// table, its rank directory and its skip spans over real meta documents and
// random forests.  NewLinkTable fills the table in one pass when the sources'
// ranks ascend in source order and sorts rank keys otherwise, so the cases
// must hold both kinds of list: most testutil and DBLP-extract forests give
// ascending ones, the random forests out-of-order ones.  DBLP sources carry
// one link each, so the random and boundary cases give theirs 0 to 3; the
// boundary cases put sources at the ranks either side of a directory word
// and at the last rank of a forest whose size is a multiple of 64.
func TestLinkTableMatchesDistanceSweep(t *testing.T) {
	cases := forestCases()
	if len(cases) < 20 {
		t.Fatalf("only %d forest meta documents with link sources", len(cases))
	}
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, randomCase(seed, 60, 64), randomCase(seed, 1500, 128),
			boundaryCase(t, seed, 64*int(seed+1)))
	}
	ascending, unordered := 0, 0
	var perSource [4]int
	for _, lc := range cases {
		idx, err := ppo.Build(lc.g)
		if err != nil {
			t.Fatal(err)
		}
		ranks := make([]int32, len(lc.sources))
		for i, y := range lc.sources {
			ranks[i] = idx.Region(y).Lo
			perSource[min(3, lc.first[i+1]-lc.first[i])]++
		}
		if slices.IsSorted(ranks) {
			ascending++
		} else {
			unordered++
		}
	}
	t.Logf("%d source lists in rank order, %d out of it; sources with 0, 1, 2 and 3+ links: %v", ascending, unordered, perSource)
	if ascending == 0 || unordered == 0 {
		t.Fatalf("%d source lists in rank order, %d out of it: both table fills must be covered", ascending, unordered)
	}
	if slices.Contains(perSource[:], 0) {
		t.Fatalf("sources with 0, 1, 2 and 3+ links: %v; every count must be covered", perSource)
	}
	for i, lc := range cases {
		checkLinkTable(t, lc, int64(i))
	}
}

// TestLinkTableAllocFree holds the sweep, skipped spans included, to zero
// allocations per call on every view once its range buffer has grown.
func TestLinkTableAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	lc := randomCase(7, 1500, 128)
	hits := int32(0)
	for view, idx := range linkViews(t, lc.g) {
		lt := pathindex.NewLinkTable(idx, lc.sources, lc.first, func(k int) int32 { return lc.to[k] })
		skip := make([]pathindex.Span, 1)
		runs := make([]pathindex.Span, 0, 2)
		x := int32(0)
		if avg := testing.AllocsPerRun(200, func() {
			skip[0] = idx.Region((x + 1) % int32(lc.g.NumNodes()))
			runs = lt.Sweep(x, skip, runs[:0])
			for _, run := range runs {
				hits += run.Hi - run.Lo
			}
			x = (x + 37) % int32(lc.g.NumNodes())
		}); avg != 0 {
			t.Errorf("%s: %.1f allocs per sweep", view, avg)
		}
	}
	if hits == 0 {
		t.Fatal("no sweep took a link")
	}
}

// FuzzLinkTable checks the differential property on random forests, link
// counts and skip sets.
func FuzzLinkTable(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(64))
	f.Add(int64(2), uint16(700), uint8(255))
	f.Add(int64(3), uint16(1200), uint8(20))
	f.Add(int64(4), uint16(128), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, density uint8) {
		checkLinkTable(t, randomCase(seed, 1+int(n%1500), density), seed)
	})
}

// TestRegionerContract holds every PPO view to the rule the evaluator's
// coverage test and link sweep rely on: x reaches y iff Region(x) holds
// Region(y).Lo, and then Distance(x, y) = Depth(y) - Depth(x) — for every
// pair of elements of the testutil forests and of random forests, over heap,
// raw-mapped and compressed views.
func TestRegionerContract(t *testing.T) {
	cases := familyForests()
	if len(cases) < 50 {
		t.Fatalf("only %d forest meta documents", len(cases))
	}
	for seed := int64(1); seed <= 3; seed++ {
		cases = append(cases, randomCase(seed, 60, 0), randomCase(seed, 300, 0))
	}
	for _, lc := range cases {
		n := int32(lc.g.NumNodes())
		for view, idx := range linkViews(t, lc.g) {
			for x := int32(0); x < n; x++ {
				region := idx.Region(x)
				for y := int32(0); y < n; y++ {
					lo := idx.Region(y).Lo
					holds := region.Lo <= lo && lo < region.Hi
					if reach := idx.Reachable(x, y); reach != holds {
						t.Fatalf("%s %s: Reachable(%d, %d) = %v, but Region(%d) = %v holds rank %d: %v", lc.name, view, x, y, reach, x, region, lo, holds)
					}
					d, ok := idx.Distance(x, y)
					if ok != holds || ok && d != idx.Depth(y)-idx.Depth(x) {
						t.Fatalf("%s %s: Distance(%d, %d) = %d, %v; depths %d, %d", lc.name, view, x, y, d, ok, idx.Depth(x), idx.Depth(y))
					}
				}
			}
		}
	}
}
