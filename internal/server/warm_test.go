package server

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/flix"
	"repro/internal/front"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// awaitDone waits for a warmer's done channel with a deadline.
func awaitDone(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still running after 10s", what)
	}
}

// midSweep returns once the serving generation's warmer has stored its first
// stream (or is through already), and hands back only its done channel, so
// the caller keeps nothing of the generation reachable.
func midSweep(s *Server) <-chan struct{} {
	g := s.gen.Load()
	for g.warmed.Load() == 0 && g.warming() {
		runtime.Gosched()
	}
	return g.warmDone
}

// hotSet fills the serving generation's cache with every document root under
// every tag (and the wildcard) and returns the keys, hottest first.  The
// wildcard queries are top-3 requests, so their entries are prefixes.
func hotSet(s *Server, coll *xmlgraph.Collection) []flix.HotKey {
	cache := s.gen.Load().cache
	for d := 0; d < coll.NumDocs(); d++ {
		for _, tag := range []string{"a", "b", "c", "d", "e", ""} {
			var opts flix.Options
			if tag == "" {
				opts.MaxResults = 3
			}
			cache.Descendants(coll.Doc(xmlgraph.DocID(d)).Root, tag, opts, func(flix.Result) bool { return true })
		}
	}
	return cache.HotKeys(0)
}

// TestInstallBackToBack swaps twice in a row — G2, then G3 before G2's
// warmer is through — and checks the hand-over: G3 ends up with every key
// G1 had hot, in G1's order, each entry reaching as far as G1's (a prefix
// stays a prefix of its length), whether G2's warmer never started evaluating
// (held), was stopped wherever the second Install caught it (immediately),
// or was stopped mid-sweep (midway).  The superseded warmer must exit,
// account for every key as either stored or handed on, and store nothing
// into its retired cache afterwards.
func TestInstallBackToBack(t *testing.T) {
	coll := tortureCollection(t)
	cfgs := swapConfigs()
	for _, mode := range []string{"held", "immediately", "midway"} {
		t.Run(mode, func(t *testing.T) {
			var ixs [3]*flix.Index
			for i := range ixs {
				var err error
				if ixs[i], err = flix.Build(coll, cfgs[i]); err != nil {
					t.Fatal(err)
				}
			}
			s := New(ixs[0], Config{CacheSize: 256})
			hot := hotSet(s, coll)
			if len(hot) < 100 {
				t.Fatalf("hot set of %d keys, want >= 100", len(hot))
			}
			if !slices.ContainsFunc(hot, func(k flix.HotKey) bool { return k.Prefix > 0 }) {
				t.Fatal("the hot set has no prefix entry")
			}
			release := func() {}
			if mode == "held" {
				release = holdWarmer(t, s)
				defer release()
			}

			s.Install(ixs[1], "G2")
			g2 := s.gen.Load()
			if mode == "midway" {
				midSweep(s)
			}
			s.Install(ixs[2], "G3")
			g3 := s.gen.Load()
			release()

			awaitDone(t, "the superseded warmer", g2.warmDone)
			stored2 := g2.cache.Len()
			if w, p := int(g2.warmed.Load()), int(g2.warmPending.Load()); w != stored2 || p != len(g2.warmRest) || w+p != len(hot) {
				t.Errorf("G2's warmer stored %d (counted %d), left %d (counted %d) of %d inherited keys: every key must be one or the other",
					stored2, w, len(g2.warmRest), p, len(hot))
			}
			if mode == "held" && stored2 != 0 {
				t.Errorf("G2's warmer stored %d streams after G2 was retired", stored2)
			}

			awaitDone(t, "G3's warmer", g3.warmDone)
			for _, k := range hot {
				if !g3.cache.Contains(k.Start, k.Tag, flix.Options{IncludeSelf: true, MaxResults: k.Prefix}) {
					t.Fatalf("G1's hot key %+v did not reach G3 (G2 stored %d, handed on %d)", k, stored2, len(g2.warmRest))
				}
			}
			if got := g3.cache.HotKeys(0); !reflect.DeepEqual(got, hot) {
				t.Errorf("G3's cache is not G1's, in G1's order with G1's prefix lengths, after a quiet warm")
			}
			if w, p := g3.warmed.Load(), g3.warmPending.Load(); int(w) != len(hot) || p != 0 || g3.warmRest != nil {
				t.Errorf("G3 warmed %d, pending %d, left %d; want %d, 0, none", w, p, len(g3.warmRest), len(hot))
			}
			if got := g2.cache.Len(); got != stored2 {
				t.Errorf("retired G2 cache grew from %d to %d entries after its warmer exited", stored2, got)
			}
		})
	}
}

// collectUntil forces collections, yielding to the finalizer goroutine in
// between, until the file is mapped at most want times.  It reports the
// count it stopped at; without /proc it collects a fixed number of times.
func collectUntil(path string, want int) int {
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		runtime.GC()
		runtime.Gosched()
		n := testutil.Mappings(path)
		if (n < 0 && i >= 5) || (n >= 0 && n <= want && i >= 2) || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMappedGenerationLifetime serves mmap-backed generations and holds late
// readers on a retired one: a request admitted before the swap that is
// mid-evaluation while the swap happens, an open probe, and warmers — one
// left running on a generation that is retired under it.  Every other
// reference is dropped and the collector and the snapshot finalizer are given
// their chance — a canary mapping opened and dropped at the same moment must
// be gone — before the readers go on.  The finalizer is the only unmap path,
// so a reader that does not keep its index reachable reads unmapped memory:
// a SIGSEGV, a failed test binary.  Generations alternate between a
// compressed and a raw snapshot of one build, whose images differ, so each
// warmer evaluates its predecessor's working set on its mapping; a reopen of
// the same file inherits every entry and evaluates nothing.  Every answer is
// held to the BFS oracle, and in the end every retired mapping must have
// been released.
func TestMappedGenerationLifetime(t *testing.T) {
	// The torture family, larger: the late answers are long, so the readers
	// below are mid-evaluation at the swap.
	coll := testutil.Generate(testutil.Linked, 11, 80, 30, 240)
	built, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, compress bool) string {
		path := filepath.Join(t.TempDir(), name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := built.WriteSnapshotV2With(f, flix.SnapshotV2Options{Compress: compress}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	path, rawPath := write("gen-000001.flix", true), write("gen-000002.flix", false)
	openFile := func(path string) *flix.Index {
		ix, err := flix.OpenSnapshotWith(coll, path, flix.OpenOptions{Mmap: true})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	open, openRaw := func() *flix.Index { return openFile(path) }, func() *flix.Index { return openFile(rawPath) }
	ix := open()
	if si := ix.StorageInfo(); !si.Mapped {
		t.Skip("platform cannot map snapshots")
	} else if !si.Compressed {
		t.Fatal("the snapshot has no compressed section: the test would not read packed views")
	}

	// The spec with the largest answer is kept out of the hot set, so the
	// late request misses the cache and evaluates on the mapping.
	specs := buildDescSpecs(t, coll, "")
	big := 0
	for i, spec := range specs {
		if len(spec.want) > len(specs[big].want) {
			big = i
		}
	}
	late, hot := specs[big], append(specs[:big:big], specs[big+1:]...)
	s := New(ix, Config{CacheSize: 256})
	for _, spec := range hot {
		s.gen.Load().cache.Descendants(spec.start, spec.tag, flix.Options{}, func(flix.Result) bool { return true })
	}

	// The late readers, all on generation 1.
	be := (*nodeTier)(s).Open(context.Background(), front.Request{Endpoint: "descendants"})
	var probe flix.Probe
	var probed, answered []wireResult
	ix.StartProbe(&probe, late.start, late.tag, flix.Options{})
	probe.Next(1, emitInto(&probed))
	ix = nil

	// swap retires generation 1 from inside its in-flight request and lets
	// the collector at it.
	swap := func() {
		s.Install(openRaw(), "mapped G2")
		open() // the canary: unreachable at once
		n := collectUntil(path, 1)
		if r := testutil.Mappings(rawPath); n >= 0 && (n != 1 || r != 1) {
			t.Errorf("%d mappings of the compressed snapshot and %d of the raw one after the swap, want 1 and 1: the retired generation its readers hold and the serving one", n, r)
		}
	}
	swapped := false
	be.Descendants(late.start, late.tag, flix.Options{}, func(r flix.Result) bool {
		if !swapped {
			swapped = true
			swap()
		}
		return emitInto(&answered)(r)
	})
	if !swapped || s.Generation() != 2 {
		t.Fatalf("the swap did not happen inside the in-flight request (generation %d)", s.Generation())
	}
	if err := late.check(answered); err != nil {
		t.Errorf("request in flight across the swap: %v", err)
	}
	for band := int32(1); probe.Next(band, emitInto(&probed)); band = flix.NextBand(band, 0) {
	}
	probe.Close()
	if err := late.check(probed); err != nil {
		t.Errorf("probe resumed on the retired generation: %v", err)
	}
	be = nil

	// Generation 2's warmer has been evaluating on its mapping beside all
	// that; what it stored must be right.
	g := s.gen.Load()
	awaitDone(t, "generation 2's warmer", g.warmDone)
	if i, w := int(g.inherited.Load()), int(g.warmed.Load()); i != 0 || w != len(hot) {
		t.Errorf("generation 2 inherited %d and warmed %d streams, want 0 and the %d hot keys", i, w, len(hot))
	}
	for _, spec := range hot {
		var got []wireResult
		g.cache.Descendants(spec.start, spec.tag, flix.Options{}, emitInto(&got))
		if err := spec.check(got); err != nil {
			t.Errorf("stream warmed from the mapping, %d//%s: %v", spec.start, spec.tag, err)
		}
	}
	if hits, misses := g.cache.Counts(); int(hits) != len(hot) || misses != 0 {
		t.Errorf("replaying the warmed keys: %d hits, %d misses; want %d, 0", hits, misses, len(hot))
	}

	// The same file again: the images are byte-identical, so every entry
	// carries over and nothing is evaluated.
	s.Install(openRaw(), "mapped G2 again")
	g = s.gen.Load()
	awaitDone(t, "the reopened generation's warmer", g.warmDone)
	if i, w, q := g.inherited.Load(), g.warmed.Load(), g.ix.Stats().Snapshot().Queries; int(i) != len(hot) || w != 0 || q != 0 {
		t.Errorf("a reopen of the same file inherited %d, warmed %d, evaluated %d; want %d, 0, 0", i, w, q, len(hot))
	}
	g = nil

	// A mapped generation retired while its warmer is mid-sweep, reachable
	// from then on only through that goroutine.
	s.Install(open(), "mapped G3")
	done := midSweep(s)
	s.Install(built, "heap G4")
	collectUntil(path, 0)
	awaitDone(t, "generation 3's warmer", done)
	awaitDone(t, "generation 4's warmer", s.gen.Load().warmDone)
	for _, spec := range hot {
		if err := spec.check(getDesc(s, spec)); err != nil {
			t.Errorf("after the last swap, %d//%s: %v", spec.start, spec.tag, err)
		}
	}

	// Nothing serves from either file any more and no reader is left: the
	// finalizer must get every mapping back.
	for _, p := range []string{path, rawPath} {
		if n := collectUntil(p, 0); n > 0 {
			t.Errorf("%d mappings of %s left with every mapped generation retired and unread", n, filepath.Base(p))
		}
	}
}

// getDesc answers one spec in-process on the serving generation, through its
// cache as a request would.
func getDesc(s *Server, spec descSpec) []wireResult {
	var got []wireResult
	be := (*nodeTier)(s).Open(context.Background(), front.Request{Endpoint: "descendants"})
	be.Descendants(spec.start, spec.tag, flix.Options{}, emitInto(&got))
	return got
}

// emitInto collects an evaluation's results in the shape descSpec.check takes.
func emitInto(dst *[]wireResult) flix.Emit {
	return func(r flix.Result) bool {
		*dst = append(*dst, wireResult{Node: r.Node, Dist: r.Dist})
		return true
	}
}
