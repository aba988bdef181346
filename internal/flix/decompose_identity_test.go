package flix

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dblp"
	"repro/internal/storage"
	"repro/internal/xmlgraph"
)

// fullCorpus is the 6210-document synthetic DBLP collection the benchmark
// serves (dblp.DefaultParams).
func fullCorpus() *xmlgraph.Collection {
	return dblp.Generate(dblp.Scaled(6210)).BuildGraph()
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestDecompositionIdentityRecorded pins the 6210-document Hybrid indexes —
// the canonical stream that Table 1 measures (v1) and both persisted
// containers — to the values recorded at the commit before the
// decomposition pipeline was rewritten (6c3dce6).  The v2 container
// stores only the per-meta-document indexes and recomputes the meta
// documents at open, so any change to a partitioner or to meta.Build that
// moves a single element orphans every deployed snapshot; it shows up here
// as a hash diff.  Do not re-record these to make the test pass.  The
// containers were recorded as version 2 wrote them, so they are hashed
// through asV2: what the hashes still pin is everything but the version
// field and the footer checksum.
func TestDecompositionIdentityRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 6210-document corpus twice")
	}
	c := fullCorpus()
	for _, tc := range []struct {
		size                int
		fingerprint         string
		v1, v2raw, v2packed string
	}{
		{
			size:        5000,
			fingerprint: "ddd8754edde35b76",
			v1:          "3c53320cf71f697613b967d541f316dc1c8efb00e5aeee132fd96b16f7c233fd",
			v2raw:       "13f9f95b93fab832c9c85f11305f23e23c049ce7cf6f5a0bdf2241103e56fae9",
			v2packed:    "3580b226e0c006cd6e785d82f072b907530136674d9896aecb514131552aedab",
		},
		{
			size:        2000,
			fingerprint: "aa103823ddc96f19",
			v1:          "5b95738ea4cfcdcde7d9ebc9e05df0173c75d5322559e8314104aedb7de0da9e",
			v2raw:       "fb6269a4b29925bede8679e21da2157a796920eb5d96d896edddf5b121354383",
			v2packed:    "0875d990db628c512a0637b80c09df991601b10892b3c6e189e893522d3a2f7c",
		},
	} {
		ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: tc.size})
		if err != nil {
			t.Fatal(err)
		}
		var v1, raw, packed bytes.Buffer
		if _, err := ix.WriteTo(&v1); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.WriteSnapshotV2With(&raw, SnapshotV2Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.WriteSnapshotV2With(&packed, SnapshotV2Options{Compress: true}); err != nil {
			t.Fatal(err)
		}
		got := [4]string{
			fmt.Sprintf("%016x", ix.MetaFingerprint()),
			sha(v1.Bytes()), sha(asV2(raw.Bytes())), sha(asV2(packed.Bytes())),
		}
		want := [4]string{tc.fingerprint, tc.v1, tc.v2raw, tc.v2packed}
		if got != want {
			t.Errorf("hybrid-%d: {fingerprint, v1, v2 raw, v2 compressed} = %q, recorded %q", tc.size, got, want)
		}
		// The recorded snapshot must also open against the recomputed
		// decomposition (manifest fingerprints) and answer like the build.
		ox, err := OpenSnapshotBytes(c, packed.Bytes())
		if err != nil {
			t.Fatalf("hybrid-%d: reopen: %v", tc.size, err)
		}
		if ox.MetaFingerprint() != ix.MetaFingerprint() {
			t.Errorf("hybrid-%d: reopened fingerprint differs", tc.size)
		}
	}
}

// openCost opens the compressed snapshot of the corpus's Hybrid/5000 index
// twice and returns what each open allocated, from the runtime's own
// counters (no wall clock): the first with nothing kept on the collection, so
// that it decomposes, the second over the decomposition the first kept.
func openCost(t *testing.T, c *xmlgraph.Collection) (first, repeated runtime.MemStats, metas int) {
	t.Helper()
	built, err := Build(c, Config{Kind: Hybrid, PartitionSize: 5000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WriteSnapshotV2With(&buf, SnapshotV2Options{Compress: true}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	evictDecomposition(c)
	open := func() runtime.MemStats {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ix, err := OpenSnapshotBytes(c, data)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		metas = ix.NumMetaDocuments()
		after.TotalAlloc -= before.TotalAlloc
		after.Mallocs -= before.Mallocs
		return after
	}
	first = open()
	repeated = open()
	return first, repeated, metas
}

// TestDecomposeAllocBudget bounds what a snapshot open allocates.  The first
// open over a collection computes the decomposition (34.7 MB in 477 133
// mallocs on the 6210-document corpus before the pipeline was rewritten);
// every later generation finds it, and under hot swap garbage per open is
// resident memory per second, so the repeated open — per meta document the
// section view and one block-directory reservation, nothing per element and
// no link table (the first query that follows a meta document's links builds
// it) — has a budget of its own: it is what keeps rss_mb on the benchmark's
// reopen-mapped workload where it is.
func TestDecomposeAllocBudget(t *testing.T) {
	// About 1.2 and 1.3 times the 1 086 032 B in 1 952 mallocs measured once
	// the link tables moved to first use; an open that builds all 937 again
	// (1 575 768 B in 4 699 mallocs) fails both.
	const repeatedOpenBytes, repeatedOpenMallocs = 1280 << 10, 2500
	if testing.Short() {
		t.Skip("builds the 6210-document corpus")
	}
	small := dblp.Generate(dblp.Scaled(1200)).BuildGraph()
	smallFirst, _, smallMetas := openCost(t, small)
	full := fullCorpus()
	fullFirst, fullRepeated, fullMetas := openCost(t, full)
	t.Logf("1200 docs: %d elements, %d metas, first open %d B in %d mallocs",
		small.NumNodes(), smallMetas, smallFirst.TotalAlloc, smallFirst.Mallocs)
	t.Logf("6210 docs: %d elements, %d metas, first open %d B in %d mallocs, repeated open %d B in %d mallocs",
		full.NumNodes(), fullMetas, fullFirst.TotalAlloc, fullFirst.Mallocs, fullRepeated.TotalAlloc, fullRepeated.Mallocs)
	if fullFirst.TotalAlloc > 16<<20 {
		t.Errorf("first 6210-document open allocated %d B, budget 16 MiB", fullFirst.TotalAlloc)
	}
	if fullRepeated.TotalAlloc > repeatedOpenBytes || fullRepeated.Mallocs > repeatedOpenMallocs {
		t.Errorf("repeated 6210-document open allocated %d B in %d mallocs, budget %d B in %d",
			fullRepeated.TotalAlloc, fullRepeated.Mallocs, repeatedOpenBytes, repeatedOpenMallocs)
	}
	// Mallocs follow meta documents, not elements: a per-meta allowance
	// plus a constant covers both corpus sizes, while the element count
	// grows ~5x between them.  Measured: 621 at 176 meta documents and
	// 2 991 at 965 once the link tables moved to first use (1 137 and 5 737
	// when the open built them, 9 619 at 965 when every local graph carried
	// a name map), so neither eager link tables nor a map per meta document
	// fit.
	const perMeta, fixed = 4, 500
	for _, c := range []struct {
		docs           int
		mallocs, metas uint64
	}{{1200, smallFirst.Mallocs, uint64(smallMetas)}, {6210, fullFirst.Mallocs, uint64(fullMetas)}} {
		if c.mallocs > perMeta*c.metas+fixed {
			t.Errorf("%d documents: %d mallocs for %d meta documents, budget %d per meta + %d",
				c.docs, c.mallocs, c.metas, perMeta, fixed)
		}
	}
}

// TestPackedWidthHistogram logs, per bit width, how many values of the
// 6210-document Hybrid/5000 compressed snapshot's ppo-c sections sit in
// blocks of that width — the values an open decodes a block at a time.
// PackedI32.Block loads eight values at once at widths up to 8 only, so it
// requires that most values sit there.  It walks the section layout
// (csection.go) with the storage reader rather than asking the packed view.
func TestPackedWidthHistogram(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 6210-document corpus")
	}
	ix, err := Build(fullCorpus(), Config{Kind: Hybrid, PartitionSize: 5000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteSnapshotV2With(&buf, SnapshotV2Options{Compress: true}); err != nil {
		t.Fatal(err)
	}
	snap, err := storage.OpenSnapshotBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var byWidth [33]int
	sections := 0
	for i := 1; i < snap.NumSections(); i++ {
		sec := snap.Section(i)
		if sec.Kind != storage.SectionPPOC {
			continue
		}
		sections++
		d := storage.NewSectionData(sec.Data)
		d.U32() // n
		d.U32() // numTags
		d.U32() // runs
		flags := d.U32()
		arrays := 5
		if flags&4 != 0 { // tagPre stored
			arrays += 2
		}
		if flags&2 != 0 { // derived
			arrays += 4
		}
		for a := 0; a < arrays; a++ {
			n := int(d.U32())
			dataLen := int(d.U32())
			nb := (n + 63) / 64
			d.I32s(nb)
			widths := d.Bytes(nb)
			d.Align(8)
			d.Bytes(dataLen)
			for b, w := range widths {
				byWidth[w] += min(64, n-b*64)
			}
		}
		if err := d.Err(); err != nil {
			t.Fatalf("section %d: %v", i, err)
		}
	}
	total, narrow := 0, 0
	for w, c := range byWidth {
		total += c
		if w <= 8 {
			narrow += c
		}
	}
	for w, c := range byWidth {
		if c > 0 {
			t.Logf("width %2d: %8d values (%5.2f %%)", w, c, 100*float64(c)/float64(total))
		}
	}
	t.Logf("%d ppo-c sections, %d packed values, %.1f %% at width <= 8", sections, total, 100*float64(narrow)/float64(total))
	if 2*narrow < total {
		t.Errorf("%d of %d packed values sit at width <= 8: the eight-per-load path no longer pays", narrow, total)
	}
}
