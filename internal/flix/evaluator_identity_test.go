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

// hashDrivers drives every forward-axis entry point over ix (descendants,
// probe, partial, type) — with a tracer when traced — and returns the hash of
// results and counters, or of the traced event sequences (kind, meta,
// strategy, node, dist; not the clock readings).
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

// hashReverse drives the reverse axis and the connection tests over ix and
// returns the hash of their results alone — no counters, no events: what
// they answer is pinned, the work they report is not.
func hashReverse(c *xmlgraph.Collection, ix *Index, tags []string) string {
	w := identityHash{sha256.New()}
	emit := func(r Result) bool {
		w.line("%d@%d", r.Node, r.Dist)
		return true
	}
	cancelled := make(chan struct{})
	close(cancelled)
	n := c.NumNodes()
	step := n/7 + 1
	for s := 0; s < n; s += step {
		start := xmlgraph.NodeID(s)
		for _, tag := range tags {
			for _, o := range identityOptions {
				if o.opts.ExactOrder || o.opts.DupSeenSet {
					continue // held by property: TestPropertyAncestorsMatchOracle
				}
				w.line("ancestors %d//%s %s", start, tag, o.name)
				ix.Ancestors(start, tag, o.opts, emit)
			}
			w.line("ancestors %d//%s cancelled", start, tag)
			ix.Ancestors(start, tag, Options{Cancel: cancelled}, emit)
		}
		// Targets: an arbitrary node (mostly unconnected), both ways round,
		// and two of start's descendants, a near one and the farthest.
		target := xmlgraph.NodeID((s*31 + 17) % n)
		pairs := [][2]xmlgraph.NodeID{{start, target}, {target, start}}
		if desc := collectRun(func(fn Emit) { ix.Descendants(start, "", Options{}, fn) }); len(desc) > 0 {
			pairs = append(pairs, [2]xmlgraph.NodeID{start, desc[len(desc)/3].Node}, [2]xmlgraph.NodeID{start, desc[len(desc)-1].Node})
		}
		for _, pair := range pairs {
			for _, maxDist := range []int32{0, 3} {
				d, ok := ix.ConnectedOpts(pair[0], pair[1], Options{MaxDist: maxDist})
				bd, bok := ix.ConnectedBidirectional(pair[0], pair[1], maxDist)
				w.line("connected %d->%d maxdist=%d: %d %v, bidirectional %d %v", pair[0], pair[1], maxDist, d, ok, bd, bok)
			}
			d, ok := ix.ConnectedOpts(pair[0], pair[1], Options{Cancel: cancelled})
			w.line("connected %d->%d cancelled: %d %v", pair[0], pair[1], d, ok)
		}
	}
	return w.sum()
}

// TestEvaluatorIdentityRecorded holds every driver of the evaluator core to
// what it produced at the commit before connect.go's loops were folded onto
// the core (ac959fd), over the collection families, the framework
// configurations and the option sets.  The forward drivers — descendants,
// probe, partial, type — are held to the same results in the same order, the
// same QueryStats counters, and — traced — the same event sequence; the
// reverse axis and the connection tests, whose work went uncounted then, to
// their results alone.  A diff means the evaluator pops something else, or
// in another order; do not re-record to make the test pass.
func TestEvaluatorIdentityRecorded(t *testing.T) {
	recorded := map[string][3]string{ // corpus -> {forward results and counters, forward traced events, reverse and connection results}
		"trees":  {"5a4e791cd0546b0871fc8ab2ea0c5a2e6e02cbca392941408a953b1e6382c637", "24d67f94f744b5545b763d1d3999f1c68d885581c99a1a0154063b016bad70b8", "e4871da747f96a2afbd36b0a66a67fa4a8f02136d6afcf748c512d17069ebf23"},
		"dags":   {"8bb6a1946194346305844aecc8002125d57481a9967a9a6fa3aa6b97258161d1", "73b8ceac822bc172c03347a11ed5c0678697498bc0d19396a930a4e6bd5aaecf", "b7b08cbc2e4200cafa5c0ff97ee4c4d8b5d5d5aa2ae4440f7d60a17d8d5771b5"},
		"linked": {"0f6d38555b1ea9f6b28ed38b1390968d068fa90c2931013a4f7f846ec51d6dee", "2f25b1b955d4949738808d113ce3db485839eb6f18d3007175272e3621738dd0", "ce9db97210059ec76819f907b9de03a02abca033bd11956d8b55713ee950786b"},
		"dblp":   {"4e476a048b2386cccc5bd25fd27120433d07e30a198c7ace84301c9ce4308a62", "a0567ea74c85ec68655181dd49e7ea589686b3ebe68c1109a97270838d3bf1dd", "02278ba7addd9478706bcfaf098ed7846d6c105f8c540c8af1b8bea336fe85a7"},
	}
	for _, corpus := range identityCorpora() {
		results, events, reverse := sha256.New(), sha256.New(), sha256.New()
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
			fmt.Fprintln(reverse, hashReverse(corpus.c, ix, corpus.tags))
			if setHash(ix.set) != before {
				t.Errorf("%s %v: the evaluator drivers wrote to the decomposition", corpus.name, cfg.Kind)
			}
		}
		got := [3]string{hex.EncodeToString(results.Sum(nil)), hex.EncodeToString(events.Sum(nil)), hex.EncodeToString(reverse.Sum(nil))}
		if got != recorded[corpus.name] {
			t.Errorf("%s: {forward results+counters, forward traced events, reverse results} =\n%q, recorded\n%q", corpus.name, got, recorded[corpus.name])
		}
	}
}
