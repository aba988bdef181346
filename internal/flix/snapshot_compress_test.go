package flix

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// The compressed golden containers, as goldenV4Path, goldenV3Path and
// goldenV2Path.
const (
	goldenV4CPath = "testdata/golden-v4c.flix"
	goldenV3CPath = "testdata/golden-v3c.flix"
	goldenV2CPath = "testdata/golden-v2c.flix"
)

// compressOpts is the configuration the compressed fixtures and the
// -snapshot-compress flag use: defaults all the way down.
var compressOpts = SnapshotV2Options{Compress: true}

// TestSnapshotCompressedParity mirrors TestSnapshotV2Parity with
// compression enabled: for every collection family and every registered
// strategy, the heap index and the compressed snapshot reopened from its
// bytes must serve identical result streams and cost identical evaluator
// work — whether a given section actually compressed or fell back to raw.
// The transitive closure has no section: its build must write nothing.
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
				if strat == "tc" {
					wantNoSection(t, heap, compressOpts)
					return
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
				// compressed must serve the same answers (compressed PPO
				// sections pass through verbatim; HOPI sections re-encode
				// from their decoded index).
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

// TestHOPIReopenPersistsLikeBuild pins that an opened HOPI generation
// persists exactly like the build it came from: write(open(write(build,
// o1)), o2) equals write(build, o2) byte for byte for every raw/compressed
// pair o1 × o2.  A HOPI section is hopi-c under either option.
func TestHOPIReopenPersistsLikeBuild(t *testing.T) {
	c := goldenCollection()
	write := func(ix *Index, o SnapshotV2Options) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := ix.WriteSnapshotV2With(&buf, o); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	opts := []SnapshotV2Options{{}, compressOpts}
	for _, cfg := range []Config{{Kind: Monolithic, Strategy: "hopi"}, {Kind: UnconnectedHOPI, PartitionSize: 40}} {
		built, err := Build(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, o1 := range opts {
			opened, err := OpenSnapshotBytes(c, write(built, o1))
			if err != nil {
				t.Fatal(err)
			}
			kinds := map[string]bool{}
			for _, st := range opened.StorageInfo().Sections {
				kinds[st.Kind] = true
			}
			if !kinds["hopi-c"] {
				t.Fatalf("%v compress=%t: no hopi-c section among %v", cfg, o1.Compress, kinds)
			}
			for _, o2 := range opts {
				if !bytes.Equal(write(opened, o2), write(built, o2)) {
					t.Errorf("%v: opened with compress=%t, rewritten with compress=%t: differs from the build's write",
						cfg, o1.Compress, o2.Compress)
				}
			}
			opened.Close()
		}
	}
}

// TestHOPISectionOneCodec: HOPI has one section codec, so Compress leaves
// every HOPI section's bytes alone — byte-identical sections of kind
// hopi-c with and without it, on a monolithic HOPI index and on
// UnconnectedHOPI — and a section of the retired raw kind 3 is refused as
// corrupt: the version-3 fixture relabelled version 4 and resealed, so only
// its kind-3 section can fail it.
func TestHOPISectionOneCodec(t *testing.T) {
	for _, tc := range []struct {
		c   *xmlgraph.Collection
		cfg Config
	}{
		{goldenCollection(), Config{Kind: Monolithic, Strategy: "hopi"}},
		{testutil.Generate(testutil.Linked, 21, 40, 20, 80), Config{Kind: UnconnectedHOPI, PartitionSize: 60}},
	} {
		built, err := Build(tc.c, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var plain, packed bytes.Buffer
		if _, err := built.WriteSnapshotV2(&plain); err != nil {
			t.Fatal(err)
		}
		if _, err := built.WriteSnapshotV2With(&packed, compressOpts); err != nil {
			t.Fatal(err)
		}
		a, err := storage.OpenSnapshotBytes(plain.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		b, err := storage.OpenSnapshotBytes(packed.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		hopi := 0
		for i := 1; i < a.NumSections(); i++ {
			sa, sb := a.Section(i), b.Section(i)
			if sa.Kind == storage.SectionHOPIC {
				hopi++
			}
			if sa.Kind != sb.Kind || !bytes.Equal(sa.Data, sb.Data) {
				t.Errorf("%v: meta %d: %s without Compress, %s with it, or different bytes",
					tc.cfg, i-1, storage.SectionKindName(sa.Kind), storage.SectionKindName(sb.Kind))
			}
		}
		if hopi == 0 {
			t.Errorf("%v: no hopi-c section", tc.cfg)
		}
	}

	v3, err := os.ReadFile(goldenV3Path)
	if err != nil {
		t.Fatal(err)
	}
	relabelled := bytes.Clone(v3)
	binary.LittleEndian.PutUint32(relabelled[8:12], storage.SnapshotVersion)
	if err := storage.Reseal(relabelled); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenSnapshotBytes(goldenCollection(), relabelled)
	if ix != nil || !errors.Is(err, ErrSnapshotCorrupt) || errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("v4 image with a kind-3 section: %v, %v; want ErrSnapshotCorrupt and no index", ix, err)
	}
}

// wantNoSection checks that ix, which uses the transitive closure, cannot be
// written: the closure has no section, so the write fails before a byte.
func wantNoSection(t *testing.T, ix *Index, opts SnapshotV2Options) {
	t.Helper()
	var buf bytes.Buffer
	n, err := ix.WriteSnapshotV2With(&buf, opts)
	if err == nil || !strings.Contains(err.Error(), "tc index cannot encode a v2 section") || n != 0 || buf.Len() != 0 {
		t.Fatalf("%+v: WriteSnapshotV2 of a tc index: %d bytes (%d buffered), %v; want 0 and the cannot-encode error",
			opts, n, buf.Len(), err)
	}
}

// TestSnapshotTCSectionRefused pins the container's narrowing to the
// strategies the selector serves: the transitive closure has no section, so
// writing an index that uses it fails before a byte is written, and a v4
// image carrying a section of kind 5 — what the closure's section was — is
// corrupt (not a version problem) from bytes and from a mapped file alike.
func TestSnapshotTCSectionRefused(t *testing.T) {
	coll := goldenCollection()
	tcIx, err := Build(coll, Config{Kind: Monolithic, Strategy: "tc"})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []SnapshotV2Options{{}, compressOpts} {
		wantNoSection(t, tcIx, opts)
	}

	// The image of a raw APEX build, its meta document's section relabelled
	// kind 5 and resealed, so only the kind is wrong.
	apexIx, err := Build(coll, Config{Kind: Monolithic, Strategy: "apex"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := apexIx.WriteSnapshotV2(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	tableOff := binary.LittleEndian.Uint64(img[len(img)-40:])
	kindAt := tableOff + 1*24 + 16 // section 1, after {off u64, len u64}
	if got := binary.LittleEndian.Uint32(img[kindAt:]); got != storage.SectionAPEX {
		t.Fatalf("section 1 has kind %d, want apex", got)
	}
	binary.LittleEndian.PutUint32(img[kindAt:], 5)
	if err := storage.Reseal(img); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(img[8:12]); v != storage.SnapshotVersion {
		t.Fatalf("image version %d, want %d", v, storage.SnapshotVersion)
	}
	refused := func(from string, ix *Index, err error) {
		t.Helper()
		if ix != nil || !errors.Is(err, ErrSnapshotCorrupt) || errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("v4 image with a kind-5 section, from %s: %v, %v; want ErrSnapshotCorrupt and no index", from, ix, err)
		}
	}
	ix, err := OpenSnapshotBytes(coll, img)
	refused("bytes", ix, err)
	path := filepath.Join(t.TempDir(), "kind5.flix")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err = OpenSnapshotWith(coll, path, OpenOptions{Mmap: true})
	refused("a mapped file", ix, err)
}

// TestSnapshotCompressedGoldenFixture pins the compressed container layout
// byte for byte and verifies the storage accounting that rides in the
// manifest trailer.  (The golden build's PPO sections are too small for
// ppo-c to pay, and its HOPI section is hopi-c under either option, so the
// fixture differs from golden-v4.flix only in that trailer, the manifest
// length the section table records and the checksum.)
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
		if err := os.WriteFile(goldenV4CPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenV4CPath, buf.Len())
	}
	raw, err := os.ReadFile(goldenV4CPath)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatalf("fresh compressed write (%d bytes) differs from committed fixture (%d bytes); "+
			"format changes must bump storage.SnapshotVersion", buf.Len(), len(raw))
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
		case "ppo-c":
			sawCompressed = true
			if st.RawBytes <= st.Bytes {
				t.Errorf("section kind %s: RawBytes %d not larger than Bytes %d", st.Kind, st.RawBytes, st.Bytes)
			}
			if st.Ratio <= 1 {
				t.Errorf("section kind %s: Ratio = %v", st.Kind, st.Ratio)
			}
		case "hopi-c":
			// Compressed at build: the manifest records no raw size.
			sawCompressed = true
			if st.RawBytes != 0 || st.Ratio != 0 {
				t.Errorf("section kind %s: RawBytes %d, Ratio %v; want 0 and 0", st.Kind, st.RawBytes, st.Ratio)
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

// ppocImage returns a collection and a compressed snapshot of it that holds
// a ppo-c section: one MaximalPPO meta document over a tree family, large
// enough for the packed form to pay.
func ppocImage(t testing.TB) (*xmlgraph.Collection, []byte) {
	t.Helper()
	c := testutil.Generate(testutil.Trees, 5, 10, 20, 30)
	ix, err := Build(c, Config{Kind: MaximalPPO})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteSnapshotV2With(&buf, compressOpts); err != nil {
		t.Fatal(err)
	}
	return c, buf.Bytes()
}

// TestWriteToCompressedErrors: a meta document served from a ppo-c section
// cannot write the canonical stream, so WriteTo on its index fails —
// without a panic and having written nothing — while SizeBytes still
// reports the container.
func TestWriteToCompressedErrors(t *testing.T) {
	c, raw := ppocImage(t)
	ix, err := OpenSnapshotBytes(c, raw)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var buf bytes.Buffer
	if n, err := ix.WriteTo(&buf); err == nil || n != 0 || buf.Len() != 0 {
		t.Fatalf("WriteTo = %d, %v with %d bytes written; want an error and nothing written", n, err, buf.Len())
	}
	if sz, err := ix.SizeBytes(); err != nil || sz != int64(len(raw)) {
		t.Errorf("SizeBytes = %d, %v; want the container size %d", sz, err, len(raw))
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
	raw, err := os.ReadFile(goldenV4CPath)
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
// tampered section, and Open must refuse it up front.  The PPO meta
// documents carry forged ppo-c sections, the HOPI one its hopi-c section.
func TestSnapshotCompressedDeclaredRatioMismatch(t *testing.T) {
	coll := goldenCollection()
	cfg := goldenConfig()
	cfg.Strategy = "ppo" // every forest meta document gets a ppo-c section
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
			if cenc, ok := p.(storage.CompressedSectionEncoder); ok {
				sw.Begin(cenc.CompressedSectionKind())
				cenc.EncodeCompressedSection(sw)
			} else {
				enc := p.(storage.SectionEncoder)
				sw.Begin(enc.SectionKind())
				enc.EncodeSection(sw)
			}
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

// TestSnapshotCompressedFallback pins the per-section fallback: APEX
// sections have no compressed encoding, so under Compress every section
// stays raw and the container opens as an uncompressed (but trailer-bearing)
// snapshot.
func TestSnapshotCompressedFallback(t *testing.T) {
	coll := goldenCollection()
	fresh, err := Build(coll, Config{Kind: Monolithic, Strategy: "apex"})
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
		t.Error("no manifest trailer in a Compress container")
	}
	si := ix.StorageInfo()
	if si.Compressed {
		t.Fatal("StorageInfo.Compressed = true")
	}
	for _, st := range si.Sections {
		if storage.IsCompressedKind(sectionKindByName(t, st.Kind)) {
			t.Fatalf("section kind %s present despite the fallback", st.Kind)
		}
	}
	if want, got := streamBytes(fresh, 0, "a"), streamBytes(ix, 0, "a"); !bytes.Equal(want, got) {
		t.Fatalf("fallback stream %s != fresh %s", got, want)
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
