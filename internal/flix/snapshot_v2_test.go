package flix

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/meta"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// The golden containers: goldenV4Path is what a fresh write of the golden
// build must equal; goldenV3Path and goldenV2Path are the same build
// written by container versions 3 (its HOPI section raw, kind 3) and 2
// (that image under a CRC-64/ECMA footer), kept byte for byte as images
// every open must refuse with ErrSnapshotVersion.
const (
	goldenV4Path = "testdata/golden-v4.flix"
	goldenV3Path = "testdata/golden-v3.flix"
	goldenV2Path = "testdata/golden-v2.flix"
)

// asV2 returns a copy of a container image as version 2 wrote it: version
// field 2 and a CRC-64/ECMA footer.  Hashes and fixtures recorded before
// version 3 are compared through it, which proves that nothing but the
// version and the checksum changed.
func asV2(img []byte) []byte {
	out := bytes.Clone(img)
	binary.LittleEndian.PutUint32(out[8:12], 2)
	sum := crc64.Checksum(out[:len(out)-16], crc64.MakeTable(crc64.ECMA))
	binary.LittleEndian.PutUint64(out[len(out)-16:], sum)
	return out
}

// registryStrategies returns every registered strategy name in stable
// order; the parity suite forces each one in turn (infeasible choices fall
// back to the selector's heuristic, which is itself part of the contract).
func registryStrategies() []string {
	names := make([]string, 0, len(meta.Registry))
	for n := range meta.Registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// queryFingerprint runs a fixed query battery — exact-order streams,
// approximate streams, top-k prefixes, connection probes — and serializes
// every result, so two backends can be compared wholesale.  It also
// exercises the reverse probes via ConnectedBidirectional.
func queryFingerprint(ix *Index, c *xmlgraph.Collection) []byte {
	var b bytes.Buffer
	step := c.NumNodes()/6 + 1
	tags := []string{"", "a", "b", "c", "e"}
	for s := 0; s < c.NumNodes(); s += step {
		start := xmlgraph.NodeID(s)
		for _, tag := range tags {
			for _, opts := range []Options{
				{},
				{ExactOrder: true},
				{MaxResults: 5},
				{MaxDist: 3, IncludeSelf: true},
				{ExactOrder: true, MaxResults: 3},
			} {
				fmt.Fprintf(&b, "q%d/%s/%v:", s, tag, opts.MaxResults)
				ix.Descendants(start, tag, opts, func(r Result) bool {
					fmt.Fprintf(&b, "%d@%d;", r.Node, r.Dist)
					return true
				})
			}
		}
		for e := 0; e < c.NumNodes(); e += step*2 + 1 {
			d1, ok1 := ix.Connected(start, xmlgraph.NodeID(e), 0)
			d2, ok2 := ix.ConnectedBidirectional(start, xmlgraph.NodeID(e), 0)
			fmt.Fprintf(&b, "c%d-%d:%d%v/%d%v;", s, e, d1, ok1, d2, ok2)
		}
	}
	return b.Bytes()
}

// TestSnapshotV2Parity is the differential suite of the tentpole: for
// every collection family and every registered strategy, a heap-built
// index and the same index written to a v2 snapshot and reopened from the
// bytes must be indistinguishable — identical result streams (exact and
// approximate order), identical top-k prefixes, identical connection
// answers, and identical evaluator work counters.  Serial and parallel
// builds must produce byte-identical snapshots.  The transitive closure has
// no section: its build must write nothing.
func TestSnapshotV2Parity(t *testing.T) {
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
					wantNoSection(t, heap, SnapshotV2Options{})
					return
				}
				var serial, parallel bytes.Buffer
				if _, err := heap.WriteSnapshotV2(&serial); err != nil {
					t.Fatal(err)
				}
				par, err := BuildWithOptions(c, cfg, BuildOptions{Parallelism: 0})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := par.WriteSnapshotV2(&parallel); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
					t.Fatal("serial and parallel builds wrote different v2 snapshots")
				}
				snap, err := OpenSnapshotBytes(c, serial.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				defer snap.Close()
				if got := snap.StorageInfo().Format; got != "v2" {
					t.Errorf("StorageInfo.Format = %q, want v2", got)
				}
				if snap.Describe() != heap.Describe() {
					t.Fatalf("snapshot Describe = %q, heap = %q", snap.Describe(), heap.Describe())
				}
				hb := queryFingerprint(heap, c)
				sb := queryFingerprint(snap, c)
				if !bytes.Equal(hb, sb) {
					t.Fatalf("query fingerprints diverge:\nheap %s\nsnap %s", firstDiff(hb, sb), firstDiff(sb, hb))
				}
				// Identical streams must have cost identical evaluator
				// work: the probe layer is storage-agnostic all the way
				// into the counters.
				if hs, ss := heap.Stats().Snapshot(), snap.Stats().Snapshot(); hs != ss {
					t.Fatalf("EvalStats diverge: heap %+v, snapshot %+v", hs, ss)
				}
			})
		}
	}
}

// firstDiff renders the neighborhood of the first diverging byte.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(0, i-30)
	hi := min(len(a), i+30)
	return fmt.Sprintf("...%s... (offset %d)", a[lo:hi], i)
}

// TestSnapshotV2GoldenFixture pins the v2 container layout: the committed
// fixture must be byte-identical to a fresh WriteSnapshotV2 of the same
// build (the format is deterministic), and opening it must serve the same
// streams as the fresh index.
//
// Regenerate (after an intentional, version-bumped format change) with:
//
//	UPDATE_GOLDEN=1 go test -run TestSnapshotV2GoldenFixture ./internal/flix
func TestSnapshotV2GoldenFixture(t *testing.T) {
	coll := goldenCollection()
	fresh, err := Build(coll, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := fresh.WriteSnapshotV2(&buf); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenV4Path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenV4Path, buf.Len())
	}
	raw, err := os.ReadFile(goldenV4Path)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatalf("fresh WriteSnapshotV2 (%d bytes) differs from committed fixture (%d bytes); "+
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
}

// TestSnapshotV2CorruptionMatrix damages the golden fixture every way the
// issue enumerates — truncation at every section boundary, bit flips in
// header, section table, payload and footer, a future version stamp — and
// requires a typed refusal for each: ErrSnapshotCorrupt or
// ErrSnapshotVersion, never a panic, never an index.
func TestSnapshotV2CorruptionMatrix(t *testing.T) {
	coll := goldenCollection()
	raw, err := os.ReadFile(goldenV4Path)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	snap, err := storage.OpenSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	// A generation is serving while the damaged files arrive: none of them
	// may touch the decomposition it was made from.
	serving, err := OpenSnapshotBytes(coll, raw)
	if err != nil {
		t.Fatal(err)
	}
	reject := func(name string, c *xmlgraph.Collection, img []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: OpenSnapshotBytes panicked: %v", name, r)
			}
		}()
		ix, err := OpenSnapshotBytes(c, img)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if ix != nil {
			t.Fatalf("%s: returned an index alongside %v", name, err)
		}
		if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("%s: untyped error %v", name, err)
		}
		if keptSet(coll) != serving.set {
			t.Fatalf("%s: the failed open replaced the collection's kept decomposition", name)
		}
	}
	mustReject := func(name string, img []byte) {
		t.Helper()
		reject(name, coll, img)
	}

	// Truncation at (and within) every section boundary, plus the
	// envelope edges.
	cuts := []int{0, 8, 31, 32}
	for i := 0; i < snap.NumSections(); i++ {
		sec := snap.Section(i)
		cuts = append(cuts, int(sec.Off), int(sec.Off)+len(sec.Data)/2, int(sec.Off)+len(sec.Data))
	}
	cuts = append(cuts, len(raw)-41, len(raw)-40, len(raw)-1)
	for _, n := range cuts {
		if n < 0 || n >= len(raw) {
			continue
		}
		mustReject(fmt.Sprintf("truncation at %d", n), raw[:n])
	}

	// Single-bit flips in every region: header, section payloads, section
	// table, footer.
	tableOff := len(raw) - 40 - snap.NumSections()*24
	targets := []int{0, 9, 13, 20, tableOff + 3, tableOff + 17, len(raw) - 40, len(raw) - 12, len(raw) - 1}
	for i := 0; i < snap.NumSections(); i++ {
		sec := snap.Section(i)
		targets = append(targets, int(sec.Off), int(sec.Off)+len(sec.Data)/3)
	}
	for _, i := range targets {
		bad := bytes.Clone(raw)
		bad[i] ^= 1 << uint(i%8)
		mustReject(fmt.Sprintf("bit flip at %d", i), bad)
	}
	// Exhaustive single-byte corruption (strided on large fixtures): the
	// whole-file checksum means every flip must be caught.
	stride := len(raw)/8192 + 1
	for i := 0; i < len(raw); i += stride {
		bad := bytes.Clone(raw)
		bad[i] ^= 0x55
		mustReject(fmt.Sprintf("byte flip at %d", i), bad)
	}

	// A manifest naming no known configuration, checksum valid: structurally
	// invalid, refused before anything is decomposed.
	mustReject("forged configuration kind", forgedKind(t, raw))

	// PPO sections of either codec without their derived runs, checksum
	// valid: no writer makes one, so the opener refuses it as corrupt.
	mustReject("ppo section without the derived flag", withoutDerived(t, raw, storage.SectionPPO))
	ppocColl, ppocRaw := ppocImage(t)
	reject("ppo-c section without the derived flag", ppocColl, withoutDerived(t, ppocRaw, storage.SectionPPOC))

	// A future container (resealed so only the version trips) must read as
	// a version problem, not corruption.
	future := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(future[8:12], storage.SnapshotVersion+1)
	if err := storage.Reseal(future); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSnapshotBytes(coll, future)
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("future version stamp: err = %v, want ErrSnapshotVersion", err)
	}
	if errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("future version stamp misreported as corruption: %v", err)
	}

	// Wrong collection: valid bytes, mismatched decomposition.
	other := testutil.Generate(testutil.Linked, 12, 10, 10, 15)
	if _, err := OpenSnapshotBytes(other, raw); err == nil {
		t.Fatal("snapshot accepted against the wrong collection")
	}
}

// TestSnapshotV2FixturesRefused: the images container versions 2 and 3
// wrote — the committed golden-v2 and golden-v3 fixtures, unedited — are
// refused with ErrSnapshotVersion, never read as corrupt, from bytes and
// from a mapped file alike; and each version-2 fixture is its version-3
// fixture with only the version field and the checksum changed.
func TestSnapshotV2FixturesRefused(t *testing.T) {
	coll := goldenCollection()
	for _, f := range []struct{ v2, v3 string }{{goldenV2Path, goldenV3Path}, {goldenV2CPath, goldenV3CPath}} {
		old, err := os.ReadFile(f.v2)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := os.ReadFile(f.v3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(asV2(cur), old) {
			t.Errorf("%s is not %s with a version-2 header and footer", f.v2, f.v3)
		}
	}
	for _, path := range []string{goldenV2Path, goldenV2CPath, goldenV3Path, goldenV3CPath} {
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for name, open := range map[string]func() (*Index, error){
			"bytes":  func() (*Index, error) { return OpenSnapshotBytes(coll, img) },
			"mapped": func() (*Index, error) { return OpenSnapshotWith(coll, path, OpenOptions{Mmap: true}) },
		} {
			ix, err := open()
			if ix != nil || !errors.Is(err, ErrSnapshotVersion) || errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("%s (%s): %v, %v; want ErrSnapshotVersion and no index", path, name, ix, err)
			}
		}
	}
}

// withoutDerived clears the derived flag of the first section of the given
// PPO kind in a snapshot image — the flags are the fourth u32 of both
// codecs' headers — and reseals the copy.
func withoutDerived(t testing.TB, raw []byte, kind uint32) []byte {
	t.Helper()
	snap, err := storage.OpenSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < snap.NumSections(); i++ {
		if sec := snap.Section(i); sec.Kind == kind {
			bad := bytes.Clone(raw)
			bad[sec.Off+12] &^= 2
			if err := storage.Reseal(bad); err != nil {
				t.Fatal(err)
			}
			return bad
		}
	}
	t.Fatalf("no %s section", storage.SectionKindName(kind))
	return nil
}

// TestSnapshotV2CrossVersion proves the container and the canonical stream
// describe the same index: a fresh build writes the exact committed stream,
// and so does the same index after a trip through a v2 snapshot — the
// mmap-backed views re-emit it byte for byte, so Table 1's measure does not
// depend on where an index came from.
func TestSnapshotV2CrossVersion(t *testing.T) {
	coll := goldenCollection()
	rawV1, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading the golden canonical stream: %v", err)
	}
	fresh, err := Build(coll, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var v1out bytes.Buffer
	if _, err := fresh.WriteTo(&v1out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v1out.Bytes(), rawV1) {
		t.Fatal("fresh WriteTo no longer matches the committed stream")
	}
	var v2buf bytes.Buffer
	if _, err := fresh.WriteSnapshotV2(&v2buf); err != nil {
		t.Fatal(err)
	}
	v2ix, err := OpenSnapshotBytes(coll, v2buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	defer v2ix.Close()
	var back bytes.Buffer
	if _, err := v2ix.WriteTo(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), rawV1) {
		t.Fatal("WriteTo from the v2-backed index does not reproduce the committed stream")
	}
}

// TestSnapshotV2File exercises the real file path: write, open mapped and
// unmapped, warm query, StorageInfo accounting.
func TestSnapshotV2File(t *testing.T) {
	coll := goldenCollection()
	fresh, err := Build(coll, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.StorageInfo().Format; got != "heap" {
		t.Errorf("built index Format = %q", got)
	}
	v2path := filepath.Join(t.TempDir(), "gen-000001.flix")
	f, err := os.Create(v2path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.WriteSnapshotV2(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(v2path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{true, false} {
		ix, err := OpenSnapshotWith(coll, v2path, OpenOptions{Mmap: mmap})
		if err != nil {
			t.Fatal(err)
		}
		si := ix.StorageInfo()
		if si.Format != "v2" || si.SizeBytes != fi.Size() {
			t.Errorf("mmap=%t: Format = %q, SizeBytes = %d; file is %d", mmap, si.Format, si.SizeBytes, fi.Size())
		}
		if si.Mapped && (!mmap || si.MappedBytes != fi.Size()) {
			t.Errorf("mmap=%t: Mapped with MappedBytes = %d, file is %d", mmap, si.MappedBytes, fi.Size())
		}
		if want, got := streamBytes(fresh, 0, "a"), streamBytes(ix, 0, "a"); !bytes.Equal(want, got) {
			t.Fatalf("mmap=%t: snapshot stream %s != fresh %s", mmap, got, want)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzOpenSnapshot feeds arbitrary bytes to the v2 opener.  The invariant
// under fuzzing: OpenSnapshotBytes either returns a typed error or an
// index that serves queries without panicking — no input may crash the
// process or index out of bounds.
func FuzzOpenSnapshot(f *testing.F) {
	if raw, err := os.ReadFile(goldenV4Path); err == nil {
		f.Add(raw)
		// A resealed truncation and a resealed section-table edit give the
		// fuzzer valid-checksum starting points deep inside validation.
		if len(raw) > 100 {
			cut := bytes.Clone(raw[:len(raw)-48])
			f.Add(cut)
			mut := bytes.Clone(raw)
			mut[40] ^= 0xff
			if storage.Reseal(mut) == nil {
				f.Add(mut)
			}
			// Manifests with a valid checksum naming an unknown Kind and
			// another PartitionSize: past the envelope, into Decompose.
			f.Add(forgedKind(f, raw))
			f.Add(forgedPartitionSize(f, raw))
		}
	}
	// The compressed fixture seeds the packed-directory and manifest-trailer
	// validation paths, with a resealed flip in its first compressed payload.
	if raw, err := os.ReadFile(goldenV4CPath); err == nil {
		f.Add(raw)
		if len(raw) > 200 {
			mut := bytes.Clone(raw)
			mut[150] ^= 0x10
			if storage.Reseal(mut) == nil {
				f.Add(mut)
			}
		}
	}
	f.Add([]byte(storage.SnapshotMagic))
	f.Add([]byte("FLIX\x04flix"))
	// The canonical stream: the foreign file a warm start is likeliest to meet.
	if raw, err := os.ReadFile(goldenPath); err == nil {
		f.Add(raw)
	}
	coll := goldenCollection()
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := OpenSnapshotBytes(coll, data)
		if err != nil {
			if ix != nil {
				t.Fatal("error with non-nil index")
			}
			return
		}
		// Anything that opens must be fully servable.
		for s := 0; s < coll.NumNodes(); s += 11 {
			streamBytes(ix, xmlgraph.NodeID(s), "a")
			streamBytes(ix, xmlgraph.NodeID(s), "")
			ix.Connected(xmlgraph.NodeID(s), xmlgraph.NodeID(coll.NumNodes()-1-s), 0)
		}
		ix.Close()
	})
}
