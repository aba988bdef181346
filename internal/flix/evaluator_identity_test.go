package flix

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/dblp"
	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// identityHash accumulates what the evaluator drivers produce: every result
// in emission order, and the work counters of every call.
type identityHash struct {
	h hash.Hash
}

func (w identityHash) line(format string, args ...any) {
	fmt.Fprintf(w.h, format+"\n", args...)
}

// call runs one driver call and records its results and what it added to
// the index's QueryStats.
func (w identityHash) call(ix *Index, label string, run func(emit Emit)) {
	w.line("%s", label)
	work := statsDelta(ix, func() {
		run(func(r Result) bool {
			w.line("%d@%d", r.Node, r.Dist)
			return true
		})
	})
	w.line("pops=%d entries=%d dup=%d hops=%d", work.Pops, work.Entries, work.DupDropped, work.LinkHops)
}

func (w identityHash) sum() string { return hex.EncodeToString(w.h.Sum(nil)) }

// identityCorpus is one collection of TestEvaluatorIdentityRecorded with
// the tags queried on it.
type identityCorpus struct {
	name string
	c    *xmlgraph.Collection
	tags []string
}

// identityCorpora returns one collection of each generator family, and a
// DBLP extract whose citation links make many paths converge on the same
// entries (long runs of equal frontier entries, most pops dropped as
// duplicates — the benchmark's shape).
func identityCorpora() []identityCorpus {
	var out []identityCorpus
	for _, fam := range testutil.Families() {
		out = append(out, identityCorpus{string(fam), testutil.Generate(fam, 3, 14, 20, 30), []string{"", "a", "c"}})
	}
	return append(out, identityCorpus{"dblp", dblp.Generate(dblp.Scaled(250)).BuildGraph(), []string{"", "article", "cite", "book"}})
}

// identityOptions are the option sets of the recorded matrix.
var identityOptions = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"exact", Options{ExactOrder: true}},
	{"seenset", Options{DupSeenSet: true}},
	{"maxdist", Options{MaxDist: 3}},
	{"maxresults", Options{MaxResults: 7}},
	{"self", Options{IncludeSelf: true}},
}

// hashDrivers drives every evaluator entry point over ix — with a tracer
// when traced — and returns the hash of results and counters, or of the
// traced event sequences (kind, meta, strategy, node, dist; not the clock
// readings).
func hashDrivers(c *xmlgraph.Collection, ix *Index, tags []string, traced bool) string {
	w := identityHash{sha256.New()}
	var tr *obs.Trace
	arm := func(o Options) Options {
		if traced {
			tr = obs.NewTrace(1 << 20)
			o.Tracer = tr
		}
		return o
	}
	events := func() {
		if !traced {
			return
		}
		for _, e := range tr.Summary(true).Events {
			w.line("%s m%d %s n%d d%d", e.Kind, e.Meta, e.Strategy, e.Node, e.Dist)
		}
	}
	n := c.NumNodes()
	step := n/7 + 1
	for s := 0; s < n; s += step {
		start := xmlgraph.NodeID(s)
		target := xmlgraph.NodeID((s*31 + 17) % n)
		for _, tag := range tags {
			for _, o := range identityOptions {
				label := fmt.Sprintf("%d//%s %s", start, tag, o.name)
				opts := arm(o.opts)
				w.call(ix, "descendants "+label, func(emit Emit) { ix.Descendants(start, tag, opts, emit) })
				events()

				opts = arm(o.opts)
				w.call(ix, "probe "+label, func(emit Emit) {
					var p Probe
					ix.StartProbe(&p, start, tag, opts)
					for band, more := int32(0), true; more; {
						band = NextBand(band, opts.MaxDist)
						more = p.Next(band, emit)
						w.line("band %d more=%v", band, more)
					}
					p.Close()
				})
				events()

				opts = arm(o.opts)
				w.call(ix, "ancestors "+label, func(emit Emit) { ix.Ancestors(start, tag, opts, emit) })
			}
			for _, maxDist := range []int32{0, 3} {
				for _, k := range []int{0, 3, 100} {
					for _, owned := range []func(int32) bool{nil, func(mi int32) bool { return mi%2 == 0 }} {
						po := PartialOptions{MaxDist: maxDist, MaxResults: k, Owned: owned}
						if traced {
							tr = obs.NewTrace(1 << 20)
							po.Tracer = tr
						}
						entries := []FrontierEntry{{Node: start}, {Node: target, Dist: 2}, {Node: start, Dist: 1}}
						w.call(ix, fmt.Sprintf("partial %d//%s maxdist=%d k=%d masked=%v", start, tag, maxDist, k, owned != nil), func(Emit) {
							res := mustPartial(ix, entries, tag, po)
							w.line("results %v hops %v pops=%d entries=%d hops=%d truncated=%v",
								res.Results, res.Hops, res.Pops, res.Entries, res.LinkHops, res.Truncated)
						})
						events()
					}
				}
			}
		}
		for _, maxDist := range []int32{0, 3} {
			d, ok := ix.ConnectedOpts(start, target, Options{MaxDist: maxDist})
			bd, bok := ix.ConnectedBidirectional(start, target, maxDist)
			w.line("connected %d->%d maxdist=%d: %d %v, bidirectional %d %v", start, target, maxDist, d, ok, bd, bok)
		}
	}
	for _, pair := range [][2]string{{tags[1], tags[2]}, {tags[2], ""}} {
		for _, o := range identityOptions {
			opts := arm(o.opts)
			w.call(ix, fmt.Sprintf("type %s//%s %s", pair[0], pair[1], o.name), func(emit Emit) {
				ix.TypeDescendants(pair[0], pair[1], opts, emit)
			})
			events()
		}
	}
	return w.sum()
}

// TestEvaluatorIdentityRecorded holds every driver of the evaluator core to
// what it produced at the commit before the frontier became a bucket queue
// (2da5dbc, a 4-ary heap): the same results in the same order, the same
// QueryStats counters, and — traced — the same event sequence, over the
// collection families, the framework configurations and the option sets.  A
// diff means the queue changed what the evaluator pops, or in which order;
// do not re-record to make the test pass.
func TestEvaluatorIdentityRecorded(t *testing.T) {
	recorded := map[string][2]string{ // corpus -> {results and counters, traced events}
		"trees":  {"2034efc2be76e65c63f4a785c196e036b911092e59eab79edd6bdaeacf866527", "3a7568ad5e9cb14bf3d43ac13880b8fc5313a36e34c019da9f6cc1b52eefcbbb"},
		"dags":   {"5b05f6a3df3ca09ed65d849635f248b012d53474472fd32dff613dd191a84bfd", "b1962cb0773b6dae0578b440f0772e75214e3acec1847f215baa11bfb30c6803"},
		"linked": {"1248d344f533367d22aa63330962536fcfb5c712d30f3fb5a100a33474428e13", "e0322863f9898a9fc0e49e495edce611cd966db962657df24c64ab45573c55ea"},
		"dblp":   {"3fbfe324f67865f348de6dadfea9f7f90ef6474b6edf05fd5bf33a17c7cb5dcb", "88cc8cc6c58831ceb3b2b6a3a67d2be10dbd807883e2fc3694f4b593f87d24c4"},
	}
	for _, corpus := range identityCorpora() {
		results, events := sha256.New(), sha256.New()
		for _, cfg := range hotpathConfigs() {
			ix, err := Build(corpus.c, cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", corpus.name, cfg.Kind, err)
			}
			// Every generation over the collection reads this Set: no
			// driver, traced or not, may leave a mark on it.
			before := setHash(ix.set)
			fmt.Fprintln(results, hashDrivers(corpus.c, ix, corpus.tags, false))
			fmt.Fprintln(events, hashDrivers(corpus.c, ix, corpus.tags, true))
			if setHash(ix.set) != before {
				t.Errorf("%s %v: the evaluator drivers wrote to the decomposition", corpus.name, cfg.Kind)
			}
		}
		got := [2]string{hex.EncodeToString(results.Sum(nil)), hex.EncodeToString(events.Sum(nil))}
		if got != recorded[corpus.name] {
			t.Errorf("%s: {results+counters, traced events} = %q, recorded %q", corpus.name, got, recorded[corpus.name])
		}
	}
}
