package flix

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// driverBackends returns ix served from the heap, from a raw v2 snapshot and
// from a compressed one — the three storage backends the evaluator core
// probes through.
func driverBackends(t *testing.T, c *xmlgraph.Collection, ix *Index) map[string]*Index {
	t.Helper()
	out := map[string]*Index{"heap": ix}
	for name, opts := range map[string]SnapshotV2Options{"mapped": {}, "compressed": compressOpts} {
		var buf bytes.Buffer
		if _, err := ix.WriteSnapshotV2With(&buf, opts); err != nil {
			t.Fatal(err)
		}
		snap, err := OpenSnapshotBytes(c, buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { snap.Close() })
		out[name] = snap
	}
	return out
}

// statsDelta runs fn and returns what it added to the index counters.
func statsDelta(ix *Index, fn func()) Snapshot {
	b := ix.Stats().Snapshot()
	fn()
	a := ix.Stats().Snapshot()
	return Snapshot{
		Queries: a.Queries - b.Queries, Pops: a.Pops - b.Pops, Entries: a.Entries - b.Entries,
		DupDropped: a.DupDropped - b.DupDropped, LinkHops: a.LinkHops - b.LinkHops, Results: a.Results - b.Results,
	}
}

// TestDriverParity ties the three drivers of the evaluator core together,
// for every collection family, registered strategy and storage backend:
//
//	(a) the bands of a Probe concatenate to Descendants under ExactOrder
//	    element for element, at identical evaluator work;
//	(b) an unmasked PartialDescendants finds the node set of
//	    Descendants(IncludeSelf), at distances no larger (its identity rule
//	    yields exact shortest distances, coverage yields upper bounds).
func TestDriverParity(t *testing.T) {
	for _, fam := range testutil.Families() {
		for _, strat := range registryStrategies() {
			c := testutil.Generate(fam, 5, 10, 12, 18)
			heap, err := Build(c, Config{Kind: Hybrid, PartitionSize: 50, Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			for backend, ix := range driverBackends(t, c, heap) {
				label := fmt.Sprintf("%s/%s/%s", fam, strat, backend)
				var p Probe
				step := c.NumNodes()/6 + 1
				for s := 0; s < c.NumNodes(); s += step {
					start := xmlgraph.NodeID(s)
					for _, tag := range []string{"", "a", "c"} {
						for _, maxDist := range []int32{0, 3} {
							opts := Options{MaxDist: maxDist, IncludeSelf: maxDist == 0, ExactOrder: true}
							var want, got []Result
							wantWork := statsDelta(ix, func() {
								want = collectRun(func(fn Emit) { ix.Descendants(start, tag, opts, fn) })
							})
							gotWork := statsDelta(ix, func() {
								ix.StartProbe(&p, start, tag, opts)
								for band, more := int32(0), true; more; {
									band = NextBand(band, maxDist)
									more = p.Next(band, func(r Result) bool {
										got = append(got, r)
										return true
									})
									if more && band == NextBand(band, maxDist) {
										t.Fatalf("%s start %d tag %q: probe not exhausted at its last band %d", label, start, tag, band)
									}
								}
								p.Close()
							})
							diffStreams(t, fmt.Sprintf("%s start %d tag %q maxdist %d: probe bands", label, start, tag, maxDist), got, want)
							if gotWork != wantWork {
								t.Fatalf("%s start %d tag %q maxdist %d: probe work %+v, descendants %+v",
									label, start, tag, maxDist, gotWork, wantWork)
							}
						}

						single := make(map[xmlgraph.NodeID]int32)
						ix.Descendants(start, tag, Options{IncludeSelf: true}, func(r Result) bool {
							single[r.Node] = r.Dist
							return true
						})
						var pr PartialResult
						work := statsDelta(ix, func() {
							// The farther duplicate of the start is queued first
							// and must pop as a counted, dropped stale entry.
							pr = mustPartial(ix, []FrontierEntry{{Node: start, Dist: 1}, {Node: start}}, tag, PartialOptions{})
						})
						if work.Pops != pr.Pops || work.Entries != pr.Entries || work.LinkHops != pr.LinkHops ||
							work.DupDropped == 0 || work.Pops != work.Entries+work.DupDropped {
							t.Fatalf("%s start %d tag %q: partial counters %+v do not add up with result %d/%d/%d",
								label, start, tag, work, pr.Pops, pr.Entries, pr.LinkHops)
						}
						if len(pr.Hops) != 0 || len(pr.Results) != len(single) {
							t.Fatalf("%s start %d tag %q: partial found %d results and %d hops, descendants %d results",
								label, start, tag, len(pr.Results), len(pr.Hops), len(single))
						}
						for _, r := range pr.Results {
							if d, ok := single[r.Node]; !ok || r.Dist > d {
								t.Fatalf("%s start %d tag %q: partial result %+v, descendants (%d, %v)",
									label, start, tag, r, d, ok)
							}
						}
					}
				}
			}
		}
	}
}

// TestEnteredTable checks the sparse coverage table against a plain map over
// growth, reuse after reset and a wrap of the occupancy stamp.
func TestEnteredTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tab enteredTable
	for round := 0; round < 40; round++ {
		if round == 20 {
			tab.gen = math.MaxUint32 // the next reset wraps the stamp
		}
		want := map[int32][]int32{}
		metas := int32(1 + rng.Intn(600))
		for i := 0; i < rng.Intn(2000); i++ {
			mi, le := rng.Int31n(metas)*7919, rng.Int31()
			ents := tab.at(mi)
			if !slices.Equal(*ents, want[mi]) {
				t.Fatalf("round %d: at(%d) = %v, want %v", round, mi, *ents, want[mi])
			}
			if rng.Intn(4) > 0 { // a covered pop looks and leaves
				*ents = append(*ents, le)
				want[mi] = append(want[mi], le)
			} else if want[mi] == nil {
				want[mi] = []int32{}
			}
		}
		for mi, w := range want {
			if got := *tab.at(mi); !slices.Equal(got, w) {
				t.Fatalf("round %d: at(%d) = %v, want %v", round, mi, got, w)
			}
		}
		if tab.n != len(want) {
			t.Fatalf("round %d: %d meta documents entered, want %d", round, tab.n, len(want))
		}
		tab.reset()
		for mi := range want {
			if got := *tab.at(mi); len(got) != 0 {
				t.Fatalf("round %d: at(%d) = %v after reset", round, mi, got)
			}
		}
		tab.reset()
	}
}

// TestOpenProbeMemory holds many probes open at once on an index with one
// meta document per document — what a ranked query does, one probe per
// candidate stream — and bounds the memory each of them pins.  State sized to
// the collection (a table with an entry per meta document, say) would cost
// tens of kilobytes per probe here and hundreds of megabytes per ranked query
// on a real collection.
func TestOpenProbeMemory(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	c := testutil.Generate(testutil.Linked, 5, 1500, 4, 600)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 4096 // bytes per open probe; a dense table alone is 24 B × 1500
	probes := make([]Probe, 400)
	drop := func(Result) bool { return true }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range probes {
		ix.StartProbe(&probes[i], xmlgraph.NodeID(i*c.NumNodes()/len(probes)), "", Options{})
		probes[i].Next(1, drop)
	}
	runtime.ReadMemStats(&after)
	for i := range probes {
		probes[i].Close()
	}
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(probes))
	t.Logf("%d B per open probe", per)
	if per > budget {
		t.Errorf("%d open probes over %d meta documents cost %d B each, budget %d",
			len(probes), len(ix.set.Metas), per, budget)
	}
}

// TestNodeTable checks the relax and result table against a plain map over
// growth, reuse after reset and a floor that passes 1<<31.
func TestNodeTable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tab nodeTable
	for round := 0; round < 40; round++ {
		if round == 20 {
			tab.top = 1<<31 - 5 // the next reset clears the slots and starts over
		}
		want := map[xmlgraph.NodeID]int32{}
		nodes := int32(1 + rng.Intn(3000))
		for i := 0; i < rng.Intn(4000); i++ {
			n, d := xmlgraph.NodeID(rng.Int31n(nodes)*7919), rng.Int31n(40)
			if round%5 == 4 {
				d = rng.Int31() // PartialDescendants seeds reach the element count
			}
			w, seen := want[n]
			if got, ok := tab.get(n); ok != seen || got != w {
				t.Fatalf("round %d: get(%d) = %d %v, want %d %v", round, n, got, ok, w, seen)
			}
			if relaxed := tab.relax(n, d); relaxed != (!seen || d < w) {
				t.Fatalf("round %d: relax(%d, %d) = %v with %d %v stored", round, n, d, relaxed, w, seen)
			} else if relaxed {
				want[n] = d
			}
		}
		if tab.n != len(want) || 4*tab.n > 3*len(tab.slots) {
			t.Fatalf("round %d: %d nodes in %d slots, want %d", round, tab.n, len(tab.slots), len(want))
		}
		tab.reset()
		for n := range want {
			if _, ok := tab.get(n); ok {
				t.Fatalf("round %d: %d still present after reset", round, n)
			}
		}
	}
}

// TestNoDoublePop holds every traceable driver, under both duplicate rules,
// to popping no (node, dist) pair twice: a node is queued only when it gets
// closer, so an equal copy never reaches the frontier.
func TestNoDoublePop(t *testing.T) {
	for _, corpus := range identityCorpora() {
		for _, cfg := range hotpathConfigs() {
			ix, err := Build(corpus.c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, run func(tr *obs.Trace)) {
				tr := obs.NewTrace(1 << 20)
				run(tr)
				popped := map[[2]int64]bool{}
				for _, e := range tr.Summary(true).Events {
					if e.Kind != obs.EvPop {
						continue
					}
					if key := [2]int64{e.Node, int64(e.Dist)}; popped[key] {
						t.Fatalf("%s %v %s: node %d popped twice at distance %d", corpus.name, cfg.Kind, label, e.Node, e.Dist)
					} else {
						popped[key] = true
					}
				}
			}
			drop := func(Result) bool { return true }
			n := corpus.c.NumNodes()
			for s := 0; s < n; s += n/9 + 1 {
				start, target := xmlgraph.NodeID(s), xmlgraph.NodeID((s*31+17)%n)
				for _, tag := range corpus.tags {
					for _, o := range identityOptions {
						label := fmt.Sprintf("%d//%s %s", start, tag, o.name)
						check("descendants "+label, func(tr *obs.Trace) {
							opts := o.opts
							opts.Tracer = tr
							ix.Descendants(start, tag, opts, drop)
						})
						check("ancestors "+label, func(tr *obs.Trace) {
							opts := o.opts
							opts.Tracer = tr
							ix.Ancestors(start, tag, opts, drop)
						})
					}
					check(fmt.Sprintf("probe %d//%s", start, tag), func(tr *obs.Trace) {
						var p Probe
						ix.StartProbe(&p, start, tag, Options{Tracer: tr})
						for band, more := int32(0), true; more; {
							band = NextBand(band, 0)
							more = p.Next(band, drop)
						}
						p.Close()
					})
					check(fmt.Sprintf("partial %d//%s", start, tag), func(tr *obs.Trace) {
						entries := []FrontierEntry{{Node: start, Dist: 1}, {Node: target, Dist: 2}, {Node: start}}
						mustPartial(ix, entries, tag, PartialOptions{Tracer: tr, Owned: func(mi int32) bool { return mi%2 == 0 }})
					})
				}
				check(fmt.Sprintf("connected %d->%d", start, target), func(tr *obs.Trace) {
					ix.ConnectedOpts(start, target, Options{Tracer: tr})
				})
			}
			check("type", func(tr *obs.Trace) {
				ix.TypeDescendants(corpus.tags[1], corpus.tags[2], Options{Tracer: tr}, drop)
			})
		}
	}
}
