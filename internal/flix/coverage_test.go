package flix

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

// regionGraph is one forest the region coverage tests run on.
type regionGraph struct {
	name string
	g    *lgraph.LGraph
}

// regionGraphs returns random forests whose preorder is not their node order
// — children hang under random earlier nodes — and the forest meta documents
// of the testutil families and of a DBLP extract.
func regionGraphs() []regionGraph {
	var out []regionGraph
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := lgraph.NewBuilder()
		for i := 0; i < 300; i++ {
			b.AddNode("a")
			if i > 0 && rng.Intn(6) != 0 {
				b.AddEdge(int32(rng.Intn(i)), int32(i))
			}
		}
		out = append(out, regionGraph{fmt.Sprintf("random-%d", seed), b.Finish()})
	}
	add := func(name string, c *xmlgraph.Collection, r *partition.Result) {
		for _, md := range meta.Build(c, r.Assignment(c)).Metas {
			if md.Graph.NumNodes() > 1 && md.Graph.IsForest() {
				out = append(out, regionGraph{fmt.Sprintf("%s/meta%d", name, md.ID), md.Graph})
			}
		}
	}
	for _, fam := range testutil.Families() {
		c := testutil.Generate(fam, 2, 12, 20, 25)
		add(string(fam)+"/tree", c, partition.TreePartitions(c))
		add(string(fam)+"/hybrid", c, partition.Hybrid(c, 40, 2))
	}
	c := dblp.Generate(dblp.Scaled(120)).BuildGraph()
	add("dblp", c, partition.Hybrid(c, 5000, 2))
	return out
}

// regionViews returns the heap PPO index over g and its raw-mapped and
// compressed snapshot views.
func regionViews(tb testing.TB, g *lgraph.LGraph) map[string]pathindex.Index {
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

// coverageRun returns an evaluator whose meta document 0 is idx, testing
// coverage through idx's region encoding when regions is set and through the
// entry list and Reachable otherwise.
func coverageRun(idx pathindex.Index, regions, reverse bool) *evalRun {
	ix := &Index{regions: make([]pathindex.Regioner, 1)}
	if regions {
		ix.regions[0] = idx.(pathindex.Regioner)
	}
	s := &evalScratch{}
	s.run = evalRun{ix: ix, s: s, idx: idx, reverse: reverse}
	return &s.run
}

// entryOrder returns up to 40 entry candidates of a forest of n nodes in
// random order, each often followed by one of its ancestors and one of its
// descendants, so entries arrive nested both ways and repeated.
func entryOrder(rng *rand.Rand, idx pathindex.Index, n int) []int32 {
	var out []int32
	for len(out) < 40 {
		x := rng.Int31n(int32(n))
		out = append(out, x)
		for _, each := range []func(int32, pathindex.Visit){idx.EachReaching, idx.EachReachable} {
			if rng.Intn(2) == 0 {
				continue
			}
			stop := rng.Intn(6)
			each(x, func(y, _ int32) bool {
				if stop--; stop < 0 {
					out = append(out, y)
					return false
				}
				return true
			})
		}
	}
	return out
}

// visible calls fn for every element the probe of entry x streams: x's
// descendants, or on the reverse axis its ancestors.
func visible(idx pathindex.Index, x int32, reverse bool, fn func(m int32)) {
	each := idx.EachReachable
	if reverse {
		each = idx.EachReaching
	}
	each(x, func(m, _ int32) bool {
		fn(m)
		return true
	})
}

// TestRegionCoverageMatchesReachable holds coverage under region encoding —
// sorted regions forward, sorted ranks in reverse — to the paper's entry list
// plus Reachable, on both axes, over heap, raw-mapped and compressed PPO: the
// same admissions and drops for entries arriving in any order, and the same
// verdict for every element the admitted entry's probe streams.
func TestRegionCoverageMatchesReachable(t *testing.T) {
	var dropped, swallowing int // entries nested under an earlier one, and above one
	for _, rg := range regionGraphs() {
		for view, idx := range regionViews(t, rg.g) {
			for _, reverse := range []bool{false, true} {
				for seed := int64(1); seed <= 4; seed++ {
					rng := rand.New(rand.NewSource(seed))
					got, want := coverageRun(idx, true, reverse), coverageRun(idx, false, reverse)
					for i, x := range entryOrder(rng, idx, rg.g.NumNodes()) {
						label := fmt.Sprintf("%s %s reverse=%v seed %d entry #%d (%d)", rg.name, view, reverse, seed, i, x)
						gp, gok := got.enter(0, x)
						wp, wok := want.enter(0, x)
						if gok != wok {
							t.Fatalf("%s: admitted %v with regions, %v with Reachable", label, gok, wok)
						}
						if !gok {
							dropped++
							continue
						}
						if !reverse && len(gp) > 0 {
							swallowing++
						}
						visible(idx, x, reverse, func(m int32) {
							if g, w := got.covered(gp, m), want.covered(wp, m); g != w {
								t.Fatalf("%s: element %d covered %v with regions, %v with Reachable", label, m, g, w)
							}
						})
					}
				}
			}
		}
	}
	if dropped < 100 || swallowing < 100 {
		t.Fatalf("%d entries covered by an earlier one and %d covering earlier ones: the orders do not nest", dropped, swallowing)
	}
}

// TestRegionCoverageEarlierEntriesOnly holds visit and follow to the entry
// points admitted before the current one: the entry's own region never hides
// its probe or its sweep.  After each admission it checks, against an entry
// list kept here, that an element the probe streams is covered iff an earlier
// entry point reaches it (in reverse: it reaches one), and that the forward
// sweep over every element as a link source emits exactly the entry's
// subtree minus the earlier entry points' subtrees — the entry itself
// included.
func TestRegionCoverageEarlierEntriesOnly(t *testing.T) {
	for _, rg := range regionGraphs() {
		n := rg.g.NumNodes()
		all, first := make([]int32, n), make([]int32, n+1)
		for i := range all {
			all[i], first[i+1] = int32(i), int32(i+1)
		}
		for view, idx := range regionViews(t, rg.g) {
			lt := pathindex.NewLinkTable(idx.(pathindex.Regioner), all, first, func(k int) int32 { return all[k] })
			for _, reverse := range []bool{false, true} {
				r := coverageRun(idx, true, reverse)
				var earlier []int32
				reaches := func(from, to int32) bool {
					if reverse {
						from, to = to, from
					}
					return idx.Reachable(from, to)
				}
				for i, x := range entryOrder(rand.New(rand.NewSource(int64(n))), idx, n) {
					label := fmt.Sprintf("%s %s reverse=%v entry #%d (%d)", rg.name, view, reverse, i, x)
					prev, ok := r.enter(0, x)
					if ok == slices.ContainsFunc(earlier, func(p int32) bool { return reaches(p, x) }) {
						t.Fatalf("%s: admitted %v", label, ok)
					}
					if !ok {
						continue
					}
					below := func(m int32) bool { return slices.ContainsFunc(earlier, func(p int32) bool { return reaches(p, m) }) }
					visible(idx, x, reverse, func(m int32) {
						if got := r.covered(prev, m); got != below(m) {
							t.Fatalf("%s: element %d covered %v, below an earlier entry %v", label, m, got, below(m))
						}
					})
					if !reverse {
						var want, got []int32
						visible(idx, x, false, func(m int32) {
							if !below(m) {
								want = append(want, m)
							}
						})
						to, _ := lt.Links()
						for _, run := range lt.Sweep(x, prev, nil) {
							got = append(got, to[run.Lo:run.Hi]...)
						}
						slices.Sort(want)
						slices.Sort(got)
						if !slices.Contains(got, x) || !slices.Equal(got, want) {
							t.Fatalf("%s: the sweep emits %v, want %v", label, got, want)
						}
					}
					earlier = append(earlier, x)
				}
			}
		}
	}
}

// TestRegionCoverageSkipsNoAnswer runs every driver of the evaluator core
// with the region encodings resolved and with them withheld (the entry list
// plus Reachable, no skipped link sources), over heap, raw-mapped and
// compressed snapshots: the results in order and the Entries must be equal,
// and the link hops may only fall — and must, summed over the runs.
func TestRegionCoverageSkipsNoAnswer(t *testing.T) {
	var hops, hopsWithout int64
	for _, corpus := range identityCorpora() {
		for _, cfg := range []Config{{Kind: MaximalPPO}, {Kind: Hybrid, PartitionSize: 40}} {
			heap, err := Build(corpus.c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for backend, ix := range driverBackends(t, corpus.c, heap) {
				regions := ix.regions
				run := func(withRegions bool, call func(emit Emit)) ([]Result, Snapshot) {
					if !withRegions {
						ix.regions = make([]pathindex.Regioner, len(regions))
						defer func() { ix.regions = regions }()
					}
					var out []Result
					work := statsDelta(ix, func() { out = collectRun(call) })
					return out, work
				}
				check := func(label string, call func(emit Emit)) {
					got, gw := run(true, call)
					want, ww := run(false, call)
					label = fmt.Sprintf("%s %v %s %s", corpus.name, cfg.Kind, backend, label)
					diffStreams(t, label, got, want)
					if gw.Entries != ww.Entries || gw.LinkHops > ww.LinkHops {
						t.Fatalf("%s: entries %d, link hops %d with regions; %d, %d without", label, gw.Entries, gw.LinkHops, ww.Entries, ww.LinkHops)
					}
					hops, hopsWithout = hops+gw.LinkHops, hopsWithout+ww.LinkHops
				}
				n := corpus.c.NumNodes()
				for s := 0; s < n; s += n/9 + 1 {
					start, target := xmlgraph.NodeID(s), xmlgraph.NodeID((s*31+17)%n)
					for _, tag := range corpus.tags {
						for _, o := range identityOptions {
							if o.opts.DupSeenSet {
								continue // the identity rule tests no coverage
							}
							check(fmt.Sprintf("descendants %d//%s %s", start, tag, o.name), func(emit Emit) { ix.Descendants(start, tag, o.opts, emit) })
							check(fmt.Sprintf("ancestors %d//%s %s", start, tag, o.name), func(emit Emit) { ix.Ancestors(start, tag, o.opts, emit) })
						}
					}
					for _, maxDist := range []int32{0, 3} {
						check(fmt.Sprintf("connected %d->%d maxdist=%d", start, target, maxDist), func(emit Emit) {
							if d, ok := ix.ConnectedOpts(start, target, Options{MaxDist: maxDist}); ok {
								emit(Result{Node: target, Dist: d})
							}
							if d, ok := ix.ConnectedBidirectional(start, target, maxDist); ok {
								emit(Result{Node: target, Dist: d})
							}
						})
					}
				}
				check("type", func(emit Emit) { ix.TypeDescendants(corpus.tags[1], corpus.tags[2], Options{}, emit) })
			}
		}
	}
	t.Logf("%d link hops with region encodings, %d without", hops, hopsWithout)
	if hops >= hopsWithout {
		t.Fatal("the region encodings skipped no link source")
	}
}
