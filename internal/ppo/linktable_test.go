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

// linkCase is one forest with a runtime-link source list over it.
type linkCase struct {
	name    string
	g       *lgraph.LGraph
	sources []int32
}

// familyForests returns the forest meta documents of the testutil families,
// with their runtime-link sources (possibly none), under the decompositions
// that produce them.
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
		for _, md := range meta.Build(c, r).Metas {
			if md.Graph.IsForest() {
				out = append(out, linkCase{fmt.Sprintf("%s/%d/meta%d", name, pi, md.ID), md.Graph, md.LinkSources})
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

// randomCase builds a random forest whose preorder is not its node order —
// children hang under random earlier nodes — with every node a link source
// with probability density/256, so link sources' preorder ranks are out of
// source order, and the sweep's bitset spans several windows of positions
// when the forest is large.
func randomCase(seed int64, n int, density uint8) linkCase {
	rng := rand.New(rand.NewSource(seed))
	b := lgraph.NewBuilder()
	var sources []int32
	for i := 0; i < n; i++ {
		b.AddNode("a")
		if i > 0 && rng.Intn(6) != 0 {
			b.AddEdge(int32(rng.Intn(i)), int32(i))
		}
		if rng.Intn(256) < int(density) {
			sources = append(sources, int32(i))
		}
	}
	return linkCase{fmt.Sprintf("random-%d-%d-%d", seed, n, density), b.Finish(), sources}
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

// sweep records the (i, d) calls of one link sweep, answering false to the
// stop-th call (never when stop is 0).
func sweep(run func(fn func(i int, d int32) bool), stop int) [][2]int32 {
	var out [][2]int32
	run(func(i int, d int32) bool {
		out = append(out, [2]int32{int32(i), d})
		return len(out) != stop
	})
	return out
}

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
// table emits exactly the sweep's hits whose preorder rank lies in no skipped
// span, each once, in ascending rank — and the same prefix when fn stops the
// sweep after one call or halfway.
func checkLinkTable(tb testing.TB, lc linkCase, seed int64) {
	if len(lc.sources) == 0 {
		return // no table: the evaluator has nothing to follow
	}
	rng := rand.New(rand.NewSource(seed))
	for view, idx := range linkViews(tb, lc.g) {
		lt := pathindex.NewLinkTable(idx, lc.sources)
		rank := func(hit [2]int32) int32 { return idx.Region(lc.sources[hit[0]]).Lo }
		for x := int32(0); int(x) < lc.g.NumNodes(); x++ {
			hits := sweep(func(fn func(int, int32) bool) { pathindex.LinkDistances(idx, x, lc.sources, fn) }, 0)
			slices.SortFunc(hits, func(a, b [2]int32) int { return int(rank(a) - rank(b)) })
			for _, skip := range skipSets(rng, idx, x, lc.g.NumNodes()) {
				all := slices.DeleteFunc(slices.Clone(hits), func(hit [2]int32) bool {
					return slices.ContainsFunc(skip, func(sp pathindex.Span) bool { return sp.Lo <= rank(hit) && rank(hit) < sp.Hi })
				})
				for _, stop := range []int{0, 1, (len(all) + 1) / 2} {
					want := all
					if stop > 0 && stop < len(want) {
						want = want[:stop]
					}
					got := sweep(func(fn func(int, int32) bool) { lt.Each(x, skip, fn) }, stop)
					if !slices.Equal(got, want) {
						tb.Fatalf("%s %s: from %d skipping %v stopping at call %d the table emits %v, the Distance sweep %v",
							lc.name, view, x, skip, stop, got, want)
					}
				}
			}
		}
	}
}

// TestLinkTableMatchesDistanceSweep is the differential proof of the
// interval sweep and its skip spans over real meta documents and random
// forests.
func TestLinkTableMatchesDistanceSweep(t *testing.T) {
	cases := forestCases()
	if len(cases) < 20 {
		t.Fatalf("only %d forest meta documents with link sources", len(cases))
	}
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, randomCase(seed, 60, 64), randomCase(seed, 1500, 128))
	}
	for i, lc := range cases {
		checkLinkTable(t, lc, int64(i))
	}
}

// TestLinkTableAllocFree holds the sweep, skipped spans included, to zero
// allocations per call on every view.
func TestLinkTableAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	lc := randomCase(7, 1500, 128)
	hits := 0
	fn := func(int, int32) bool { hits++; return true }
	for view, idx := range linkViews(t, lc.g) {
		lt := pathindex.NewLinkTable(idx, lc.sources)
		skip := make([]pathindex.Span, 1)
		x := int32(0)
		if avg := testing.AllocsPerRun(200, func() {
			skip[0] = idx.Region((x + 1) % int32(lc.g.NumNodes()))
			lt.Each(x, skip, fn)
			x = (x + 37) % int32(lc.g.NumNodes())
		}); avg != 0 {
			t.Errorf("%s: %.1f allocs per sweep", view, avg)
		}
	}
	if hits == 0 {
		t.Fatal("no sweep hit a source")
	}
}

// FuzzLinkTable checks the differential property on random forests and skip
// sets.
func FuzzLinkTable(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(64))
	f.Add(int64(2), uint16(700), uint8(255))
	f.Add(int64(3), uint16(1200), uint8(20))
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
