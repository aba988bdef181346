package flix

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

const goldenV2CPath = "testdata/golden-v2c.flix"

// compressOpts is the configuration the compressed fixtures and the
// -snapshot-compress flag use: defaults all the way down.
var compressOpts = SnapshotV2Options{Compress: true}

// TestSnapshotCompressedParity mirrors TestSnapshotV2Parity with
// compression enabled: for every collection family and every registered
// strategy, the heap index and the compressed snapshot reopened from its
// bytes must serve identical result streams and cost identical evaluator
// work — whether a given section actually compressed or fell back to raw.
func TestSnapshotCompressedParity(t *testing.T) {
	for _, fam := range testutil.Families() {
		for _, strat := range registryStrategies() {
			t.Run(string(fam)+"/"+strat, func(t *testing.T) {
				c := testutil.Generate(fam, 5, 10, 12, 18)
				cfg := Config{Kind: Hybrid, PartitionSize: 50, Strategy: strat}
				heap, err := BuildWithOptions(c, cfg, BuildOptions{Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				var serial, parallel bytes.Buffer
				if _, err := heap.WriteSnapshotV2With(&serial, compressOpts); err != nil {
					t.Fatal(err)
				}
				par, err := BuildWithOptions(c, cfg, BuildOptions{Parallelism: 0})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := par.WriteSnapshotV2With(&parallel, compressOpts); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
					t.Fatal("serial and parallel builds wrote different compressed snapshots")
				}
				snap, err := OpenSnapshotBytes(c, serial.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				defer snap.Close()
				if snap.Describe() != heap.Describe() {
					t.Fatalf("snapshot Describe = %q, heap = %q", snap.Describe(), heap.Describe())
				}
				hb := queryFingerprint(heap, c)
				sb := queryFingerprint(snap, c)
				if !bytes.Equal(hb, sb) {
					t.Fatalf("query fingerprints diverge:\nheap %s\nsnap %s", firstDiff(hb, sb), firstDiff(sb, hb))
				}
				if hs, ss := heap.Stats().Snapshot(), snap.Stats().Snapshot(); hs != ss {
					t.Fatalf("EvalStats diverge: heap %+v, snapshot %+v", hs, ss)
				}
				// Reopening a compressed snapshot and re-persisting it
				// compressed must reproduce the image byte for byte (the
				// already-compressed sections pass through verbatim).
				var again bytes.Buffer
				if _, err := snap.WriteSnapshotV2With(&again, compressOpts); err != nil {
					t.Fatal(err)
				}
				openAgain, err := OpenSnapshotBytes(c, again.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				defer openAgain.Close()
				if ab := queryFingerprint(openAgain, c); !bytes.Equal(hb, ab) {
					t.Fatal("re-persisted compressed snapshot diverges")
				}
			})
		}
	}
}

// TestSnapshotCompressedGoldenFixture pins the compressed container layout
// byte for byte, checks the compressed fixture actually beats the raw v2
// fixture on size, and verifies the storage accounting that rides in the
// manifest trailer.
//
// Regenerate (after an intentional, version-bumped format change) with:
//
//	UPDATE_GOLDEN=1 go test -run TestSnapshotCompressedGoldenFixture ./internal/flix
func TestSnapshotCompressedGoldenFixture(t *testing.T) {
	coll := goldenCollection()
	fresh, err := Build(coll, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := fresh.WriteSnapshotV2With(&buf, compressOpts); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenV2CPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenV2CPath, buf.Len())
	}
	raw, err := os.ReadFile(goldenV2CPath)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatalf("fresh compressed write (%d bytes) differs from committed fixture (%d bytes); "+
			"format changes must bump storage.SnapshotVersion", buf.Len(), len(raw))
	}
	rawV2, err := os.ReadFile(goldenV2Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) >= len(rawV2) {
		t.Fatalf("compressed fixture (%d bytes) is no smaller than the raw v2 fixture (%d bytes)", len(raw), len(rawV2))
	}

	ix, err := OpenSnapshotBytes(coll, raw)
	if err != nil {
		t.Fatalf("opening golden fixture: %v", err)
	}
	defer ix.Close()
	for start := 0; start < coll.NumNodes(); start += 7 {
		for _, tag := range []string{"a", "b", "c", "d", "e", ""} {
			want := streamBytes(fresh, xmlgraph.NodeID(start), tag)
			got := streamBytes(ix, xmlgraph.NodeID(start), tag)
			if !bytes.Equal(want, got) {
				t.Fatalf("start %d tag %q: fixture stream %s != fresh %s", start, tag, got, want)
			}
		}
	}

	si := ix.StorageInfo()
	if !si.Compressed {
		t.Fatal("StorageInfo.Compressed = false for the compressed fixture")
	}
	if si.SizeBytes != int64(len(raw)) {
		t.Errorf("StorageInfo.SizeBytes = %d, file is %d", si.SizeBytes, len(raw))
	}
	if sz, err := ix.SizeBytes(); err != nil || sz != int64(len(raw)) {
		t.Errorf("SizeBytes() = %d, %v; want the container size %d", sz, err, len(raw))
	}
	var sawCompressed bool
	var total int64
	for _, st := range si.Sections {
		total += st.Bytes
		switch st.Kind {
		case "ppo-c", "hopi-c":
			sawCompressed = true
			if st.RawBytes <= st.Bytes {
				t.Errorf("section kind %s: RawBytes %d not larger than Bytes %d", st.Kind, st.RawBytes, st.Bytes)
			}
			if st.Ratio <= 1 {
				t.Errorf("section kind %s: Ratio = %v", st.Kind, st.Ratio)
			}
		}
	}
	if !sawCompressed {
		t.Fatal("no compressed section kinds in StorageInfo.Sections")
	}
	if total >= int64(len(raw)) {
		t.Errorf("section payloads sum to %d, whole file is %d", total, len(raw))
	}

	// The compressed container still re-emits the exact committed
	// canonical stream: the probe views decode back to it.
	rawV1, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if _, err := ix.WriteTo(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), rawV1) {
		t.Fatal("WriteTo from the compressed snapshot does not reproduce the committed stream")
	}
}

// TestSnapshotCompressedCorruptionMatrix extends the corruption matrix to
// the compressed fixture: every truncation and unresealed flip must be
// rejected with a typed error, and resealed damage — flips that pass the
// whole-file checksum and land in the bit-packed block directories or
// varint blobs — must either be rejected by section validation or yield an
// index whose probes stay in bounds.  Never a panic, in either case.
func TestSnapshotCompressedCorruptionMatrix(t *testing.T) {
	coll := goldenCollection()
	raw, err := os.ReadFile(goldenV2CPath)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	snap, err := storage.OpenSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	mustReject := func(name string, img []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: OpenSnapshotBytes panicked: %v", name, r)
			}
		}()
		ix, err := OpenSnapshotBytes(coll, img)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if ix != nil {
			t.Fatalf("%s: returned an index alongside %v", name, err)
		}
		if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("%s: untyped error %v", name, err)
		}
	}

	mustReject("forged configuration kind", forgedKind(t, raw))

	// Truncations: envelope edges, every section boundary, and mid-block
	// inside every compressed payload.
	cuts := []int{0, 8, 31, 32}
	for i := 0; i < snap.NumSections(); i++ {
		sec := snap.Section(i)
		cuts = append(cuts, int(sec.Off), int(sec.Off)+len(sec.Data)/2, int(sec.Off)+len(sec.Data))
		if storage.IsCompressedKind(sec.Kind) {
			cuts = append(cuts, int(sec.Off)+24, int(sec.Off)+len(sec.Data)/4)
		}
	}
	cuts = append(cuts, len(raw)-41, len(raw)-40, len(raw)-1)
	for _, n := range cuts {
		if n < 0 || n >= len(raw) {
			continue
		}
		mustReject(fmt.Sprintf("truncation at %d", n), raw[:n])
	}

	// Unresealed single-byte flips, strided across the whole file: the
	// checksum catches every one of them.
	stride := len(raw)/8192 + 1
	for i := 0; i < len(raw); i += stride {
		bad := bytes.Clone(raw)
		bad[i] ^= 0x55
		mustReject(fmt.Sprintf("byte flip at %d", i), bad)
	}

	// Resealed flips inside the compressed sections — the checksum passes,
	// so the section openers' structural validation is all that stands.
	// Target the front of each compressed payload (the packed directories:
	// counts, dataLens, bases, widths) and a spread of deeper offsets.
	serve := func(ix *Index) {
		for s := 0; s < coll.NumNodes(); s += 9 {
			streamBytes(ix, xmlgraph.NodeID(s), "a")
			streamBytes(ix, xmlgraph.NodeID(s), "")
			ix.Connected(xmlgraph.NodeID(s), xmlgraph.NodeID(coll.NumNodes()-1-s), 0)
		}
	}
	for i := 0; i < snap.NumSections(); i++ {
		sec := snap.Section(i)
		if !storage.IsCompressedKind(sec.Kind) {
			continue
		}
		var offs []int
		for o := 0; o < min(len(sec.Data), 64); o++ {
			offs = append(offs, o)
		}
		for o := 64; o < len(sec.Data); o += len(sec.Data)/16 + 1 {
			offs = append(offs, o)
		}
		for _, o := range offs {
			for _, bit := range []byte{1, 0x80} {
				bad := bytes.Clone(raw)
				bad[int(sec.Off)+o] ^= bit
				if err := storage.Reseal(bad); err != nil {
					t.Fatal(err)
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("resealed flip at section %d offset %d bit %#x: panic %v", i, o, bit, r)
						}
					}()
					ix, err := OpenSnapshotBytes(coll, bad)
					if err == nil {
						serve(ix)
						ix.Close()
					} else if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
						t.Fatalf("resealed flip at section %d offset %d bit %#x: untyped error %v", i, o, bit, err)
					}
				}()
			}
		}
	}
}

// TestSnapshotCompressedDeclaredRatioMismatch forges a snapshot whose
// manifest declares raw sizes smaller than the compressed sections it
// carries — a "compression" that expanded is a tampered manifest or a
// tampered section, and Open must refuse it up front.
func TestSnapshotCompressedDeclaredRatioMismatch(t *testing.T) {
	coll := goldenCollection()
	cfg := goldenConfig()
	cfg.Strategy = "ppo" // every section gets a compressed encoder
	ix, err := Build(coll, cfg)
	if err != nil {
		t.Fatal(err)
	}
	forge := func(rawLen int64) []byte {
		var buf bytes.Buffer
		sw := storage.NewSnapshotWriter(&buf)
		rawLens := make([]int64, len(ix.pis))
		for i := range rawLens {
			rawLens[i] = rawLen
		}
		ix.writeManifest(sw, rawLens)
		for _, p := range ix.pis {
			cenc := p.(storage.CompressedSectionEncoder)
			sw.Begin(cenc.CompressedSectionKind())
			cenc.EncodeCompressedSection(sw)
			sw.End()
		}
		if _, err := sw.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// rawLen 1 understates every section: typed refusal.
	if _, err := OpenSnapshotBytes(coll, forge(1)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("understated raw sizes: err = %v, want ErrSnapshotCorrupt", err)
	}
	// rawLen 0 means "unknown" (a re-persisted compressed snapshot) and
	// must open fine.
	open, err := OpenSnapshotBytes(coll, forge(0))
	if err != nil {
		t.Fatalf("unknown raw sizes: %v", err)
	}
	open.Close()
}

// TestSnapshotCompressedFallback pins the per-section fallback: APEX and
// transitive-closure sections have no compressed encoding, so under Compress
// every section stays raw and the container opens as an uncompressed (but
// trailer-bearing) snapshot.
func TestSnapshotCompressedFallback(t *testing.T) {
	coll := goldenCollection()
	for _, strat := range []string{"apex", "tc"} {
		fresh, err := Build(coll, Config{Kind: Monolithic, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := fresh.WriteSnapshotV2With(&buf, SnapshotV2Options{Compress: true}); err != nil {
			t.Fatal(err)
		}
		ix, err := OpenSnapshotBytes(coll, buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		if ix.secRaw == nil {
			t.Errorf("%s: no manifest trailer in a Compress container", strat)
		}
		si := ix.StorageInfo()
		if si.Compressed {
			t.Fatalf("%s: StorageInfo.Compressed = true", strat)
		}
		for _, st := range si.Sections {
			if storage.IsCompressedKind(sectionKindByName(t, st.Kind)) {
				t.Fatalf("%s: section kind %s present despite the fallback", strat, st.Kind)
			}
		}
		if want, got := streamBytes(fresh, 0, "a"), streamBytes(ix, 0, "a"); !bytes.Equal(want, got) {
			t.Fatalf("%s: fallback stream %s != fresh %s", strat, got, want)
		}
	}
}

// sectionKindByName inverts storage.SectionKindName for the small set of
// known kinds.
func sectionKindByName(t *testing.T, name string) uint32 {
	t.Helper()
	for k := uint32(0); k < 16; k++ {
		if storage.SectionKindName(k) == name {
			return k
		}
	}
	t.Fatalf("unknown section kind name %q", name)
	return 0
}
