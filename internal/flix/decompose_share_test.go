package flix

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/lgraph"
	"repro/internal/meta"
	"repro/internal/pathindex"
	"repro/internal/storage"
	"repro/internal/xmlgraph"
)

// keptSet returns the decomposition kept with c, nil when there is none.
func keptSet(c *xmlgraph.Collection) *meta.Set {
	var s *meta.Set
	c.UpdateDerived(func(cur any) any {
		if d, ok := cur.(*decomposition); ok {
			s = d.set
		}
		return cur
	})
	return s
}

// setHash hashes everything a decomposition holds: the node→meta and
// node→local maps and, per meta document, its members, local graph (tags,
// names, both adjacency directions, the name→tag map), link tables with their
// per-source runs, and the local→global and collection-tag→local-tag tables.
// The unexported fields are read through the accessors the evaluator uses.
func setHash(s *meta.Set) string {
	h := sha256.New()
	put := func(format string, args ...any) { fmt.Fprintf(h, format+"\n", args...) }
	put("coll %p metas %d", s.Coll, len(s.Metas))
	put("metaOf %v", s.MetaOf)
	put("localOf %v", s.LocalOf)
	nTags := int32(len(s.Coll.TagNames()))
	for i, md := range s.Metas {
		g := md.Graph
		put("meta %d id %d docs %v nodes %d tags %d", i, md.ID, md.Docs, g.NumNodes(), g.NumTags())
		for t := int32(0); int(t) < g.NumTags(); t++ {
			put("tag %d %q %d", t, g.TagName(t), g.TagOf(g.TagName(t)))
		}
		for u := int32(0); int(u) < g.NumNodes(); u++ {
			put("%d t%d g%d s%v p%v", u, g.Tag(u), md.ToGlobal(u), g.Succs(u), g.Preds(u))
		}
		for id := int32(-1); id < nTags; id++ {
			put("localTag %d %d", id, md.LocalTag(id))
		}
		put("out %v", md.OutLinks)
		put("in %v", md.InLinks)
		put("sources %v", md.LinkSources)
		for j := range md.LinkSources {
			put("from %d %v", j, md.LinksFrom(j))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// evictDecomposition empties the collection's derived slot, so that the next
// Decompose computes.
func evictDecomposition(c *xmlgraph.Collection) {
	c.UpdateDerived(func(any) any { return nil })
}

// goldenSnapshot returns the compressed snapshot of the golden index, built
// over a collection of its own so that the caller's has no decomposition yet.
func goldenSnapshot(t *testing.T) []byte {
	t.Helper()
	ix, err := Build(goldenCollection(), goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteSnapshotV2With(&buf, SnapshotV2Options{Compress: true}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecompositionShared holds Decompose to its sharing rule: builds and
// opens over one collection under the same Kind, PartitionSize and
// MinTreeDocs hand out one *meta.Set, Strategy and Load are not part of the
// key, another configuration replaces the kept Set once it has built, and
// collections never share.
func TestDecompositionShared(t *testing.T) {
	c := goldenCollection()
	img := goldenSnapshot(t)
	if keptSet(c) != nil {
		t.Fatal("a decomposition is kept before anything was built or opened")
	}
	first, err := OpenSnapshotBytes(c, img)
	if err != nil {
		t.Fatal(err)
	}
	if keptSet(c) != first.set {
		t.Fatal("the first open did not keep its decomposition")
	}
	again, err := OpenSnapshotBytes(c, img)
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(c, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	forced := goldenConfig()
	forced.Strategy, forced.Load = "hopi", meta.LoadShortPaths
	strategy, err := Build(c, forced)
	if err != nil {
		t.Fatal(err)
	}
	for what, ix := range map[string]*Index{"second open": again, "build after open": built, "build with another Strategy and Load": strategy} {
		if ix.set != first.set {
			t.Errorf("%s: a decomposition of its own", what)
		}
	}

	// Another PartitionSize is another decomposition, and becomes the kept one.
	smaller := goldenConfig()
	smaller.PartitionSize = 30
	other, err := Build(c, smaller)
	if err != nil {
		t.Fatal(err)
	}
	if other.set == first.set {
		t.Fatal("PartitionSize 30 shares the decomposition of PartitionSize 60")
	}
	if keptSet(c) != other.set {
		t.Error("a successful build under another PartitionSize did not replace the kept decomposition")
	}
	if err := sameAnswers(c, first, again); err != nil {
		t.Errorf("indexes over the replaced decomposition: %v", err)
	}

	// An equal collection is still another collection.
	c2 := goldenCollection()
	elsewhere, err := OpenSnapshotBytes(c2, img)
	if err != nil {
		t.Fatal(err)
	}
	if elsewhere.set == first.set || elsewhere.set == other.set || elsewhere.set.Coll != c2 {
		t.Error("an open over another collection was handed this collection's decomposition")
	}
	if keptSet(c) != other.set {
		t.Error("an open over another collection touched this collection's kept decomposition")
	}
}

// TestDecompositionConcurrentFirstOpens opens one snapshot eight times at
// once over a collection nothing has decomposed: the first caller computes,
// the others wait and share, so all eight hold one Set.  Run under -race.
func TestDecompositionConcurrentFirstOpens(t *testing.T) {
	c := goldenCollection()
	img := goldenSnapshot(t)
	const n = 8
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		ixs   [n]*Index
		errs  [n]error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			ixs[i], errs[i] = OpenSnapshotBytes(c, img)
		}(i)
	}
	close(start)
	wg.Wait()
	computed := 0
	for i := range ixs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if ixs[i].set != ixs[0].set {
			t.Errorf("open %d has a decomposition of its own", i)
		}
		if ixs[i].bstats.Partition > 0 {
			computed++
		}
	}
	if computed != 1 {
		t.Errorf("%d of %d concurrent first opens decomposed, want 1", computed, n)
	}
	if keptSet(c) != ixs[0].set {
		t.Error("the shared decomposition is not the kept one")
	}
	if err := sameAnswers(c, ixs[0], ixs[n-1]); err != nil {
		t.Error(err)
	}
}

// forgeManifest returns a copy of a golden-configuration snapshot whose
// manifest byte at off — 0 is the varint of Kind, 1 that of PartitionSize —
// reads to instead of from, checksum recomputed: only the forged field can
// trip validation.
func forgeManifest(t testing.TB, raw []byte, off int, from, to byte) []byte {
	t.Helper()
	snap, err := storage.OpenSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	at := int(snap.Section(0).Off) + off
	if raw[at] != from {
		t.Fatalf("manifest byte %d is %#x, expected %#x: the fixture's configuration changed", off, raw[at], from)
	}
	forged := bytes.Clone(raw)
	forged[at] = to
	if err := storage.Reseal(forged); err != nil {
		t.Fatal(err)
	}
	return forged
}

// forgedKind carries ConfigKind 40 (zigzag 0x50) in place of Hybrid.
func forgedKind(t testing.TB, raw []byte) []byte { return forgeManifest(t, raw, 0, 0x06, 0x50) }

// forgedPartitionSize carries PartitionSize 40 in place of 60: a valid
// configuration that decomposes, into meta documents the sections do not fit.
func forgedPartitionSize(t testing.TB, raw []byte) []byte {
	return forgeManifest(t, raw, 1, 0x78, 0x50)
}

// TestDecompositionKeptAcrossFailure: an open or build that fails after it
// decomposed under another configuration leaves the kept decomposition — the
// one the serving generation was made from — in place.  (The forged Kind,
// which fails before any decomposition, is a row of the corruption matrices.)
func TestDecompositionKeptAcrossFailure(t *testing.T) {
	c := goldenCollection()
	raw, err := os.ReadFile(goldenV2Path)
	if err != nil {
		t.Fatal(err)
	}
	serving, err := OpenSnapshotBytes(c, raw)
	if err != nil {
		t.Fatal(err)
	}
	if ix, err := OpenSnapshotBytes(c, forgedPartitionSize(t, raw)); err == nil || ix != nil {
		t.Fatalf("a snapshot with a forged PartitionSize opened (%v)", err)
	}
	if keptSet(c) != serving.set {
		t.Error("the failed open displaced the serving generation's decomposition")
	}
	// A build fails after Decompose when a strategy's builder does.
	meta.Registry["failing"] = pathindex.Strategy{Name: "failing", Build: func(*lgraph.LGraph) (pathindex.Index, error) {
		return nil, errors.New("builder failed")
	}}
	defer delete(meta.Registry, "failing")
	if _, err := Build(c, Config{Kind: Hybrid, PartitionSize: 40, Strategy: "failing"}); err == nil {
		t.Fatal("a build whose strategy fails succeeded")
	}
	if keptSet(c) != serving.set {
		t.Error("the failed build displaced the serving generation's decomposition")
	}
}

// TestCollectionCollectedWithDecomposition: the kept Set points back at its
// collection, a cycle the collector must be able to drop as a whole once
// nothing else refers to either.  A finalizer on the collection itself would
// never run — the runtime keeps what a finalizable object refers to alive,
// and the cycle leads back to it — so the witness is the element array,
// which only the collection refers to and which refers to nothing.
func TestCollectionCollectedWithDecomposition(t *testing.T) {
	collected := make(chan struct{})
	func() {
		c := goldenCollection()
		ix, err := Build(c, goldenConfig())
		if err != nil {
			t.Fatal(err)
		}
		if keptSet(c) != ix.set || ix.set.Coll != c {
			t.Fatal("no cycle to collect: the collection keeps no decomposition pointing back at it")
		}
		runtime.SetFinalizer(c.Node(0), func(*xmlgraph.Node) { close(collected) })
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("the collection was not collected: its kept decomposition pins it")
		case <-time.After(time.Millisecond):
		}
	}
}
