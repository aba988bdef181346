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

// forestCases returns the PPO-indexable meta documents with link sources of
// the testutil families and of a DBLP extract, under the decompositions that
// produce them.
func forestCases() []linkCase {
	var out []linkCase
	add := func(name string, c *xmlgraph.Collection, parts ...*partition.Result) {
		for pi, r := range parts {
			for _, md := range meta.Build(c, r).Metas {
				if len(md.LinkSources) > 0 && md.Graph.IsForest() {
					out = append(out, linkCase{fmt.Sprintf("%s/%d/meta%d", name, pi, md.ID), md.Graph, md.LinkSources})
				}
			}
		}
	}
	for _, fam := range testutil.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			c := testutil.Generate(fam, seed, 12, 20, 25)
			add(fmt.Sprintf("%s-%d", fam, seed), c, partition.Singleton(c), partition.TreePartitions(c), partition.Hybrid(c, 40, 2))
		}
	}
	c := dblp.Generate(dblp.Scaled(400)).BuildGraph()
	add("dblp", c, partition.Singleton(c), partition.Hybrid(c, 5000, 2))
	return out
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

// linkViews returns the heap index over g and its raw-mapped and compressed
// snapshot views.
func linkViews(tb testing.TB, g *lgraph.LGraph) map[string]pathindex.Index {
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
	return map[string]pathindex.Index{"heap": idx, "mapped": mapped, "compressed": compressed}
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

// checkLinkTable holds every view's LinkTable over lc to the per-source
// Distance sweep: the same calls in the same order from every element, and
// the same prefix when fn stops the sweep after one call or halfway.
func checkLinkTable(tb testing.TB, lc linkCase) {
	if len(lc.sources) == 0 {
		return // no table: the evaluator has nothing to follow
	}
	for view, idx := range linkViews(tb, lc.g) {
		lt := pathindex.NewLinkTable(idx, lc.sources)
		if lt == nil {
			tb.Fatalf("%s %s: no link table", lc.name, view)
		}
		for x := int32(0); int(x) < lc.g.NumNodes(); x++ {
			want := sweep(func(fn func(int, int32) bool) { pathindex.LinkDistances(idx, x, lc.sources, fn) }, 0)
			for _, stop := range []int{0, 1, (len(want) + 1) / 2} {
				want := want
				if stop > 0 && stop < len(want) {
					want = want[:stop]
				}
				got := sweep(func(fn func(int, int32) bool) { lt.LinkDistancesTo(x, fn) }, stop)
				if !slices.Equal(got, want) {
					tb.Fatalf("%s %s: from %d stopping at call %d the table emits %v, the Distance sweep %v", lc.name, view, x, stop, got, want)
				}
			}
		}
	}
}

// TestLinkTableMatchesDistanceSweep is the differential proof of the
// interval sweep over real meta documents and random forests.
func TestLinkTableMatchesDistanceSweep(t *testing.T) {
	cases := forestCases()
	if len(cases) < 20 {
		t.Fatalf("only %d forest meta documents with link sources", len(cases))
	}
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, randomCase(seed, 60, 64), randomCase(seed, 1500, 128))
	}
	for _, lc := range cases {
		checkLinkTable(t, lc)
	}
}

// TestLinkTableAllocFree holds the sweep, scattered positions included, to
// zero allocations per call on every view.
func TestLinkTableAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	lc := randomCase(7, 1500, 128)
	hits := 0
	fn := func(int, int32) bool { hits++; return true }
	for view, idx := range linkViews(t, lc.g) {
		lt := pathindex.NewLinkTable(idx, lc.sources)
		x := int32(0)
		if avg := testing.AllocsPerRun(200, func() {
			lt.LinkDistancesTo(x, fn)
			x = (x + 37) % int32(lc.g.NumNodes())
		}); avg != 0 {
			t.Errorf("%s: %.1f allocs per sweep", view, avg)
		}
	}
	if hits == 0 {
		t.Fatal("no sweep hit a source")
	}
}

// FuzzLinkTable checks the differential property on random forests.
func FuzzLinkTable(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(64))
	f.Add(int64(2), uint16(700), uint8(255))
	f.Add(int64(3), uint16(1200), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, density uint8) {
		checkLinkTable(t, randomCase(seed, 1+int(n%1500), density))
	})
}
