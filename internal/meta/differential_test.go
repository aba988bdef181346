package meta

import (
	"fmt"
	"testing"

	"repro/internal/lgraph"
	"repro/internal/partition"
	"repro/internal/pathindex"
	"repro/internal/tc"
	"repro/internal/testutil"
)

// The differential suite cross-checks every strategy in Registry against
// the transitive-closure oracle on seeded random collections of all three
// structural families (trees, DAGs with id/idref links, cross-document
// XLinks): exact agreement on reachability, distances, and the ascending
// (distance, node) result ordering, for forward and reverse enumeration,
// wildcard and per-tag.
//
// Every failure message carries the family and seed, so a red run
// reproduces exactly with testutil.Generate(family, seed, 6, 30, 12).
func TestDifferentialRegistryVsTC(t *testing.T) {
	for _, family := range testutil.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", family, seed), func(t *testing.T) {
				c := testutil.Generate(family, seed, 6, 30, 12)
				set := Build(c, partition.Whole(c))
				if err := set.Validate(); err != nil {
					t.Fatalf("family=%s seed=%d: invalid meta set: %v", family, seed, err)
				}
				g := set.Metas[0].Graph
				oracle := tc.Build(g)
				for name, strat := range Registry {
					if strat.RequiresForest && !g.IsForest() {
						t.Logf("family=%s seed=%d: skipping %s (graph is not a forest)", family, seed, name)
						continue
					}
					t.Run(name, func(t *testing.T) {
						ctx := fmt.Sprintf("family=%s seed=%d strategy=%s", family, seed, name)
						idx, err := strat.Build(g)
						if err != nil {
							t.Fatalf("%s: build: %v", ctx, err)
						}
						diffCheck(t, ctx, g, idx, oracle)
					})
				}
			})
		}
	}
}

// visitPair is one (node, dist) step of an enumeration.
type visitPair struct{ node, dist int32 }

func collect(enum func(pathindex.Visit)) []visitPair {
	var out []visitPair
	enum(func(node, dist int32) bool {
		out = append(out, visitPair{node, dist})
		return true
	})
	return out
}

// diffCheck asserts exact agreement between idx and the oracle on every
// node: reachability and distance for all pairs, plus the full enumeration
// sequences (order included) for the descendants-or-self and
// ancestors-or-self axes, wildcard and per-tag.
func diffCheck(t *testing.T, ctx string, g *lgraph.LGraph, idx pathindex.Index, oracle *tc.Index) {
	t.Helper()
	n := int32(idx.NumNodes())
	if int(n) != oracle.NumNodes() {
		t.Fatalf("%s: index has %d nodes, oracle %d", ctx, n, oracle.NumNodes())
	}
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			wd, wok := oracle.Distance(u, v)
			gd, gok := idx.Distance(u, v)
			if wok != gok || (wok && wd != gd) {
				t.Fatalf("%s: Distance(%d,%d) = (%d,%v), oracle (%d,%v)", ctx, u, v, gd, gok, wd, wok)
			}
			if idx.Reachable(u, v) != wok {
				t.Fatalf("%s: Reachable(%d,%d) = %v, oracle %v", ctx, u, v, !wok, wok)
			}
		}
		checkSeq(t, ctx, fmt.Sprintf("EachReachable(%d)", u),
			collect(func(fn pathindex.Visit) { idx.EachReachable(u, fn) }),
			collect(func(fn pathindex.Visit) { oracle.EachReachable(u, fn) }))
		checkSeq(t, ctx, fmt.Sprintf("EachReaching(%d)", u),
			collect(func(fn pathindex.Visit) { idx.EachReaching(u, fn) }),
			collect(func(fn pathindex.Visit) { oracle.EachReaching(u, fn) }))
		for ti := 0; ti < g.NumTags(); ti++ {
			tag := lgraph.Tag(ti)
			checkSeq(t, ctx, fmt.Sprintf("EachReachableByTag(%d,%q)", u, g.TagName(tag)),
				collect(func(fn pathindex.Visit) { idx.EachReachableByTag(u, tag, fn) }),
				collect(func(fn pathindex.Visit) { oracle.EachReachableByTag(u, tag, fn) }))
			checkSeq(t, ctx, fmt.Sprintf("EachReachingByTag(%d,%q)", u, g.TagName(tag)),
				collect(func(fn pathindex.Visit) { idx.EachReachingByTag(u, tag, fn) }),
				collect(func(fn pathindex.Visit) { oracle.EachReachingByTag(u, tag, fn) }))
		}
	}
}

func checkSeq(t *testing.T, ctx, what string, got, want []visitPair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s returned %d results, oracle %d", ctx, what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: %s result %d is (node %d, dist %d), oracle (node %d, dist %d)",
				ctx, what, i, got[i].node, got[i].dist, want[i].node, want[i].dist)
		}
	}
}
