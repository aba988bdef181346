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

// identityHash accumulates what the evaluator drivers produce in two
// streams.  answers holds what a caller can observe: every result in emission
// order, the Entries and LinkHops each call adds, the partial driver's
// returned fields, and the traced events other than Pop and DupDrop.  work
// holds how much the frontier popped to get there: Pops, DupDropped, the Pop
// and DupDrop events, and Probe.Next's band schedule.
type identityHash struct {
	answers, work hash.Hash
	pops, dropped int64 // totals of the calls, for the log
}

func (w *identityHash) line(format string, args ...any) {
	fmt.Fprintf(w.answers, format+"\n", args...)
}

func (w *identityHash) workLine(format string, args ...any) {
	fmt.Fprintf(w.work, format+"\n", args...)
}

// call runs one driver call and records its results and what it added to
// the index's QueryStats.
func (w *identityHash) call(ix *Index, label string, run func(emit Emit)) {
	w.line("%s", label)
	w.workLine("%s", label)
	work := statsDelta(ix, func() {
		run(func(r Result) bool {
			w.line("%d@%d", r.Node, r.Dist)
			return true
		})
	})
	w.line("entries=%d hops=%d", work.Entries, work.LinkHops)
	w.workLine("pops=%d dup=%d", work.Pops, work.DupDropped)
	w.pops += work.Pops
	w.dropped += work.DupDropped
}

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
// probe, partial, type) — with a tracer when traced, whose event sequences
// (kind, meta, strategy, node, dist; not the clock readings) join the
// streams — into w.
func hashDrivers(w *identityHash, c *xmlgraph.Collection, ix *Index, tags []string, traced bool) {
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
			line := w.line
			if e.Kind == obs.EvPop || e.Kind == obs.EvDupDrop {
				line = w.workLine
			}
			line("%s m%d %s n%d d%d", e.Kind, e.Meta, e.Strategy, e.Node, e.Dist)
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
						w.workLine("band %d more=%v", band, more)
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
							w.line("results %v hops %v entries=%d hops=%d truncated=%v",
								res.Results, res.Hops, res.Entries, res.LinkHops, res.Truncated)
							w.workLine("pops=%d", res.Pops)
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
}

// hashReverse drives the reverse axis and the connection tests over ix and
// returns the hash of their results alone — no counters, no events: what
// they answer is pinned, the work they report is not.
func hashReverse(c *xmlgraph.Collection, ix *Index, tags []string) string {
	w := &identityHash{answers: sha256.New()}
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
	return hex.EncodeToString(w.answers.Sum(nil))
}

// TestEvaluatorIdentityRecorded holds every driver of the evaluator core to
// what it produced before, over the collection families, the framework
// configurations and the option sets, in three hashes per corpus:
//
//   - the forward answers (descendants, probe, partial, type; identityHash),
//     recorded at 97a867d, before link targets were relaxed at push — the
//     results in the same order, the same Entries and LinkHops, the same
//     traced admissions, probes, hops and results.  Never re-record it: a
//     diff means the evaluator answers something else;
//   - the forward work: Pops, DupDropped, their events and the probe band
//     schedule, re-recorded when relaxing at push stopped queuing the copies
//     the duplicate rule used to drop at pop (ISSUE 25).  A diff means the
//     frontier pops something else;
//   - the results alone of the reverse axis and the connection tests,
//     recorded at ac959fd.  Never re-record it either.
func TestEvaluatorIdentityRecorded(t *testing.T) {
	recorded := map[string][3]string{ // corpus -> {forward answers, forward work, reverse and connection results}
		"trees":  {"25f7a81a2b4fc69a04db6d83d50d2ac5512deece3a190108d3aea9a3a0fc36d3", "e8b19b58d0888aa3f1f95e1881a6f243a930b962167e26e3c28a80447dd5340c", "e4871da747f96a2afbd36b0a66a67fa4a8f02136d6afcf748c512d17069ebf23"},
		"dags":   {"1e92a98eee6c2d71e26d795e8cff9cb5defd6dfed27b6e219c82b67dfaa09062", "908748554ca3d3289adfc77dc14536dbfaf20c8b9b3c8fc473f4b64730622a6b", "b7b08cbc2e4200cafa5c0ff97ee4c4d8b5d5d5aa2ae4440f7d60a17d8d5771b5"},
		"linked": {"6926a13c5c2565df840353b4eba9cc25c42d94e6a1d408e2424250d44071b15e", "545b03881da84169a37ba60d36269d67686df6114d634e28f5470e7c392f7801", "ce9db97210059ec76819f907b9de03a02abca033bd11956d8b55713ee950786b"},
		"dblp":   {"8f778ac8f42a7fb1198acabc2a06a0a878cb4398295f1ff78f7f6cdac51e95d3", "c5a0c661a156c944e78ccf4603bb94185c2aaa0eb2f4aa1b8d74cd5422e123a6", "02278ba7addd9478706bcfaf098ed7846d6c105f8c540c8af1b8bea336fe85a7"},
	}
	for _, corpus := range identityCorpora() {
		w := &identityHash{answers: sha256.New(), work: sha256.New()}
		reverse := sha256.New()
		for _, cfg := range hotpathConfigs() {
			ix, err := Build(corpus.c, cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", corpus.name, cfg.Kind, err)
			}
			// Every generation over the collection reads this Set: no
			// driver, traced or not, may leave a mark on it.
			before := setHash(ix.set)
			hashDrivers(w, corpus.c, ix, corpus.tags, false)
			hashDrivers(w, corpus.c, ix, corpus.tags, true)
			fmt.Fprintln(reverse, hashReverse(corpus.c, ix, corpus.tags))
			if setHash(ix.set) != before {
				t.Errorf("%s %v: the evaluator drivers wrote to the decomposition", corpus.name, cfg.Kind)
			}
		}
		t.Logf("%s: %d pops, %d dropped as duplicates", corpus.name, w.pops, w.dropped)
		got := [3]string{hex.EncodeToString(w.answers.Sum(nil)), hex.EncodeToString(w.work.Sum(nil)), hex.EncodeToString(reverse.Sum(nil))}
		if got != recorded[corpus.name] {
			t.Errorf("%s: {forward answers, forward work, reverse results} =\n%q, recorded\n%q", corpus.name, got, recorded[corpus.name])
		}
	}
}
