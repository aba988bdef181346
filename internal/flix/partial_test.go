package flix

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// mustPartial is PartialDescendants for well-formed entries.
func mustPartial(ix *Index, entries []FrontierEntry, tag string, opts PartialOptions) PartialResult {
	pr, err := ix.PartialDescendants(entries, tag, opts)
	if err != nil {
		panic(err)
	}
	return pr
}

// gatherLocal replays the router's scatter-gather loop in-process against a
// single index: the meta documents are split across nShards synthetic owners
// and hops are re-dispatched Dijkstra-style until the frontier drains.  It
// is the reference implementation of the distributed composition that the
// HTTP tier in internal/shard must match.
func gatherLocal(ix *Index, start xmlgraph.NodeID, tag string, maxDist int32, nShards int) []FrontierEntry {
	owner := func(mi int32) int { return int(mi) % nShards }
	best := map[xmlgraph.NodeID]int32{start: 0}
	results := make(map[xmlgraph.NodeID]int32)
	batches := make([][]FrontierEntry, nShards)
	batches[owner(ix.MetaOf(start))] = []FrontierEntry{{Node: start, Dist: 0}}
	for {
		any := false
		next := make([][]FrontierEntry, nShards)
		for sh, batch := range batches {
			if len(batch) == 0 {
				continue
			}
			any = true
			sh := sh
			pr := mustPartial(ix, batch, tag, PartialOptions{
				MaxDist: maxDist,
				Owned:   func(mi int32) bool { return owner(mi) == sh },
			})
			for _, r := range pr.Results {
				if d, ok := results[r.Node]; !ok || r.Dist < d {
					results[r.Node] = r.Dist
				}
			}
			for _, hp := range pr.Hops {
				if d, ok := best[hp.Node]; !ok || hp.Dist < d {
					best[hp.Node] = hp.Dist
					o := owner(ix.MetaOf(hp.Node))
					next[o] = append(next[o], hp)
				}
			}
		}
		if !any {
			break
		}
		batches = next
	}
	merged := make([]pqItem, 0, len(results))
	for n, d := range results {
		merged = append(merged, pqItem{dist: d, node: n})
	}
	return wireEntries(merged)
}

// dropSelf removes the start element from a (dist, node)-sorted stream, the
// router's default include-self policy.
func dropSelf(entries []FrontierEntry, start xmlgraph.NodeID) []FrontierEntry {
	out := entries[:0:0]
	for _, e := range entries {
		if e.Node != start {
			out = append(out, e)
		}
	}
	return out
}

// TestPartialDescendantsMatchesOracle checks the core exactness claim: the
// gathered partial streams carry exact shortest distances in exact
// (dist, node) order, for every graph family and shard count — stronger
// than the single-node evaluator's approximate upper bounds.
func TestPartialDescendantsMatchesOracle(t *testing.T) {
	for _, fam := range testutil.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			coll := testutil.Generate(fam, seed, 12, 40, 30)
			ix, err := Build(coll, Config{Kind: Hybrid, PartitionSize: 60})
			if err != nil {
				t.Fatalf("%s/%d: %v", fam, seed, err)
			}
			rng := rand.New(rand.NewSource(seed * 77))
			tags := coll.Tags()
			for q := 0; q < 8; q++ {
				start := xmlgraph.NodeID(rng.Intn(coll.NumNodes()))
				tag := tags[rng.Intn(len(tags))]
				oracle := coll.DescendantsByTag(start, tag)
				for _, nShards := range []int{1, 2, 4} {
					got := dropSelf(gatherLocal(ix, start, tag, 0, nShards), start)
					if len(got) != len(oracle) {
						t.Fatalf("%s/%d shards=%d %d//%s: %d results, oracle %d",
							fam, seed, nShards, start, tag, len(got), len(oracle))
					}
					for i := range got {
						if got[i].Node != oracle[i].Node || got[i].Dist != oracle[i].Dist {
							t.Fatalf("%s/%d shards=%d %d//%s: result %d = (%d,%d), oracle (%d,%d)",
								fam, seed, nShards, start, tag, i,
								got[i].Node, got[i].Dist, oracle[i].Node, oracle[i].Dist)
						}
					}
				}
			}
		}
	}
}

// TestPartialDescendantsMaxDist checks that the distance bound composes with
// sharding: bounded gathered runs equal the bounded oracle exactly (the
// partial evaluator's Dijkstra cutoff is exact, unlike the single-node
// found-path pruning).
func TestPartialDescendantsMaxDist(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 5, 12, 40, 40)
	ix, err := Build(coll, Config{Kind: Hybrid, PartitionSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	tags := coll.Tags()
	for q := 0; q < 10; q++ {
		start := xmlgraph.NodeID(rng.Intn(coll.NumNodes()))
		tag := tags[rng.Intn(len(tags))]
		maxDist := int32(1 + rng.Intn(6))
		var oracle []FrontierEntry
		for _, nd := range coll.DescendantsByTag(start, tag) {
			if nd.Dist <= maxDist {
				oracle = append(oracle, FrontierEntry{Node: nd.Node, Dist: nd.Dist})
			}
		}
		got := dropSelf(gatherLocal(ix, start, tag, maxDist, 3), start)
		if fmt.Sprint(got) != fmt.Sprint(oracle) {
			t.Fatalf("%d//%s maxdist=%d:\n got    %v\n oracle %v", start, tag, maxDist, got, oracle)
		}
	}
}

// TestPartialHopsAreForeign checks the ownership contract: hops lie only in
// foreign meta documents, results only in owned ones, and an entry handed in
// for a foreign meta document comes straight back as a hop.
func TestPartialHopsAreForeign(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 3, 10, 40, 40)
	ix, err := Build(coll, Config{Kind: Hybrid, PartitionSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumMetaDocuments() < 2 {
		t.Skip("collection produced a single meta document")
	}
	owned := func(mi int32) bool { return mi%2 == 0 }
	for start := xmlgraph.NodeID(0); int(start) < coll.NumNodes(); start += 7 {
		pr := mustPartial(ix, []FrontierEntry{{Node: start, Dist: 0}}, "", PartialOptions{Owned: owned})
		for _, r := range pr.Results {
			if !owned(ix.MetaOf(r.Node)) {
				t.Fatalf("start %d: result %d lies in foreign meta %d", start, r.Node, ix.MetaOf(r.Node))
			}
		}
		for _, h := range pr.Hops {
			if owned(ix.MetaOf(h.Node)) {
				t.Fatalf("start %d: hop %d lies in owned meta %d", start, h.Node, ix.MetaOf(h.Node))
			}
		}
		if !owned(ix.MetaOf(start)) {
			if len(pr.Results) != 0 || len(pr.Hops) != 1 || pr.Hops[0].Node != start {
				t.Fatalf("foreign start %d: want exactly itself back as a hop, got results=%v hops=%v",
					start, pr.Results, pr.Hops)
			}
		}
	}
}

// TestPartialDescendantsCancel checks that a closed cancel channel marks the
// evaluation truncated instead of looping.
func TestPartialDescendantsCancel(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 4, 10, 40, 40)
	ix, err := Build(coll, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done)
	pr := mustPartial(ix, []FrontierEntry{{Node: 0, Dist: 0}}, "", PartialOptions{Cancel: done})
	if !pr.Truncated {
		t.Fatal("cancelled evaluation not marked truncated")
	}
}

// TestPartialDescendantsRejectsBadNodes checks that frontier entries naming
// nodes outside the collection — they arrive off the wire — are an error,
// not an index-out-of-range panic.
func TestPartialDescendantsRejectsBadNodes(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 4, 10, 40, 40)
	ix, err := Build(coll, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := mustPartial(ix, []FrontierEntry{{Node: 0}}, "", PartialOptions{})
	for _, bad := range []xmlgraph.NodeID{-1, xmlgraph.NodeID(coll.NumNodes()), 1 << 30} {
		entries := []FrontierEntry{{Node: 0}, {Node: bad}}
		if pr, err := ix.PartialDescendants(entries, "", PartialOptions{}); err == nil {
			t.Errorf("node %d accepted: %d results, %d hops", bad, len(pr.Results), len(pr.Hops))
		}
	}
	// A rejected call returns its half-seeded scratch to the pool clean.
	got := mustPartial(ix, []FrontierEntry{{Node: 0}}, "", PartialOptions{})
	if len(want.Results) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("evaluation after rejected ones:\n got %v\nwant %v", got, want)
	}
}

// TestMetaFingerprintAgreement checks that identically configured builds
// agree on the fingerprint and differently partitioned builds do not.
func TestMetaFingerprintAgreement(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 6, 12, 40, 40)
	a, err := Build(coll, Config{Kind: Hybrid, PartitionSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(coll, Config{Kind: Hybrid, PartitionSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	if a.MetaFingerprint() != b.MetaFingerprint() {
		t.Fatal("identical builds disagree on the meta fingerprint")
	}
	mono, err := Build(coll, Config{Kind: Monolithic})
	if err != nil {
		t.Fatal(err)
	}
	if mono.NumMetaDocuments() != a.NumMetaDocuments() && mono.MetaFingerprint() == a.MetaFingerprint() {
		t.Fatal("different partitionings share a fingerprint")
	}
}
