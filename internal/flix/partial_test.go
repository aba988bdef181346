package flix

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
	return wireEntries(merged, 0)
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

// stoppingBand replays the limit driver's band schedule against the unlimited
// results: the first band, counted from the batch's smallest distance, that
// holds k of them (MaxInt32 when none does).
func stoppingBand(full []FrontierEntry, first, maxDist int32, k int) int32 {
	for band := first; ; band = NextBand(band, maxDist) {
		n := 0
		for _, e := range full {
			if e.Dist <= band {
				n++
			}
		}
		if n >= k {
			return band
		}
		if band == math.MaxInt32 || (maxDist > 0 && band == maxDist) {
			return math.MaxInt32
		}
	}
}

// TestPartialMaxResultsIsExactPrefix checks the limit contract over graph
// families × ownership masks × MaxDist × K × single-start and mixed-distance
// batches: Results is exactly the K-prefix of the unlimited call's Results;
// Hops is the unlimited call's hops up to the stopping band (or all of them,
// when the frontier drained first) — never a hop the unlimited call does not
// return, never one missing at or below the band; and the stop is exact, not
// Truncated.  It also insists that the limit saved work somewhere, so the
// early stop is not vacuously correct.
func TestPartialMaxResultsIsExactPrefix(t *testing.T) {
	masks := map[string]func(int32) bool{
		"all":   nil,
		"even":  func(mi int32) bool { return mi%2 == 0 },
		"third": func(mi int32) bool { return mi%3 == 1 },
	}
	stoppedEarly, cutHops := 0, 0
	for _, fam := range testutil.Families() {
		coll := testutil.Generate(fam, 2, 14, 40, 50)
		ix, err := Build(coll, Config{Kind: Hybrid, PartitionSize: 40})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		rng := rand.New(rand.NewSource(41))
		tags := append(coll.Tags()[:2:2], "")
		for q := 0; q < 12; q++ {
			// Even queries are a gather's first round (one start at 0), odd
			// ones a later round (several hops at mixed distances).
			entries := []FrontierEntry{{Node: xmlgraph.NodeID(rng.Intn(coll.NumNodes()))}}
			if q%2 == 1 {
				for i := 0; i < 3; i++ {
					entries = append(entries, FrontierEntry{Node: xmlgraph.NodeID(rng.Intn(coll.NumNodes())), Dist: int32(1 + rng.Intn(5))})
				}
			}
			tag := tags[q%len(tags)]
			for name, owned := range masks {
				for _, maxDist := range []int32{0, 4, 9} {
					first := int32(math.MaxInt32)
					for _, e := range entries {
						if maxDist == 0 || e.Dist <= maxDist {
							first = min(first, e.Dist)
						}
					}
					full := mustPartial(ix, entries, tag, PartialOptions{MaxDist: maxDist, Owned: owned})
					for _, k := range []int{1, 2, 5, 17, 100} {
						id := fmt.Sprintf("%s q%d %v//%q mask=%s maxdist=%d k=%d", fam, q, entries, tag, name, maxDist, k)
						got := mustPartial(ix, entries, tag, PartialOptions{MaxDist: maxDist, Owned: owned, MaxResults: k})
						if got.Truncated {
							t.Fatalf("%s: exact early stop flagged Truncated", id)
						}
						want := full.Results[:min(k, len(full.Results))]
						if fmt.Sprint(got.Results) != fmt.Sprint(want) {
							t.Fatalf("%s:\n results %v\n want the prefix %v", id, got.Results, want)
						}
						band := stoppingBand(full.Results, first, maxDist, k)
						var upTo []FrontierEntry
						for _, h := range full.Hops {
							if h.Dist <= band {
								upTo = append(upTo, h)
							}
						}
						if hops := fmt.Sprint(got.Hops); hops != fmt.Sprint(upTo) && hops != fmt.Sprint(full.Hops) {
							t.Fatalf("%s: stopping band %d\n hops %v\n want %v\n or all of %v", id, band, got.Hops, upTo, full.Hops)
						}
						if got.Pops > full.Pops {
							t.Fatalf("%s: %d pops under the limit, %d without", id, got.Pops, full.Pops)
						}
						if got.Pops < full.Pops {
							stoppedEarly++
						}
						if len(got.Hops) < len(full.Hops) {
							cutHops++
						}
					}
				}
			}
		}
	}
	if stoppedEarly == 0 || cutHops == 0 {
		t.Fatalf("the limit never saved work (%d evaluations popped less, %d returned fewer hops): the early stop is untested", stoppedEarly, cutHops)
	}
}

// TestPartialMaxResultsCancelMidBand checks that a cancellation landing
// inside a band of a limited evaluation is still reported: the early stop
// must not pass a cut-short evaluation off as an exact one.
func TestPartialMaxResultsCancelMidBand(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 4, 10, 40, 40)
	ix, err := Build(coll, Config{Kind: Hybrid, PartitionSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	entries := []FrontierEntry{{Node: 0}}
	full := mustPartial(ix, entries, "", PartialOptions{MaxResults: 1 << 20})
	if full.Truncated || full.Pops < 4 {
		t.Fatalf("uncancelled run: truncated=%v pops=%d, want a clean run of several pops", full.Truncated, full.Pops)
	}
	// Owned is consulted once per admitted pop, so closing the channel from
	// inside it cancels between two pops of the same run.
	done := make(chan struct{})
	calls := 0
	pr := mustPartial(ix, entries, "", PartialOptions{
		MaxResults: 1 << 20,
		Cancel:     done,
		Owned: func(int32) bool {
			if calls++; calls == 2 {
				close(done)
			}
			return true
		},
	})
	if !pr.Truncated {
		t.Fatal("evaluation cancelled mid-band not marked truncated")
	}
	if pr.Pops >= full.Pops {
		t.Fatalf("cancelled run popped %d entries, the full run %d", pr.Pops, full.Pops)
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

// TestPartialSeedDistanceBounded checks that a seed distance off the wire
// cannot size the frontier's per-distance buckets: beyond the collection's
// element count it is an error like an out-of-range node, and the rejected
// call allocates next to nothing (a bucket list out to distance 1<<30 would
// be 24 GiB of slice headers).
func TestPartialSeedDistanceBounded(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	coll := testutil.Generate(testutil.Linked, 4, 10, 40, 40)
	ix, err := Build(coll, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := int32(coll.NumNodes())
	want := mustPartial(ix, []FrontierEntry{{Node: 0}}, "", PartialOptions{})
	// The longest distance that is not refused is served.
	far := mustPartial(ix, []FrontierEntry{{Node: 0, Dist: n}}, "", PartialOptions{})
	if len(far.Results) != len(want.Results) || far.Results[0].Dist != want.Results[0].Dist+n {
		t.Fatalf("seed at distance %d: %d results from %+v, want %d from distance %d",
			n, len(far.Results), far.Results[:1], len(want.Results), want.Results[0].Dist+n)
	}
	const budget = 4096 // bytes per rejected call: the error and its message
	var before, after runtime.MemStats
	for _, bad := range []int32{n + 1, 1 << 30, math.MaxInt32} {
		entries := []FrontierEntry{{Node: 0}, {Node: 1, Dist: bad}}
		runtime.ReadMemStats(&before)
		pr, err := ix.PartialDescendants(entries, "", PartialOptions{})
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("distance %d accepted: %d results, %d hops", bad, len(pr.Results), len(pr.Hops))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("distance %d: the rejected call allocated %d B, budget %d", bad, got, budget)
		}
		// MaxDist does not excuse it: the entry is malformed, not far.
		if _, err := ix.PartialDescendants(entries, "", PartialOptions{MaxDist: 5}); err == nil {
			t.Errorf("distance %d accepted under MaxDist", bad)
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
