package flix

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// rewriteSnapshot re-emits a v2 image section by section, passing each
// section's bytes through edit (i = 0 is the manifest), under a fresh
// checksum: only section validation can refuse the result.
func rewriteSnapshot(t *testing.T, raw []byte, edit func(i int, data []byte) []byte) []byte {
	t.Helper()
	snap, err := storage.OpenSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := storage.NewSnapshotWriter(&buf)
	for i := 0; i < snap.NumSections(); i++ {
		sec := snap.Section(i)
		sw.Begin(sec.Kind)
		sw.Raw(edit(i, bytes.Clone(sec.Data)))
		sw.End()
	}
	if _, err := sw.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// forgeFingerprint flips a bit of meta document k's link hash in a manifest.
func forgeFingerprint(t *testing.T, manifest []byte, k int) []byte {
	t.Helper()
	d := storage.NewSectionData(manifest)
	for range 4 { // Kind, PartitionSize, MinTreeDocs, Load
		d.Varint()
	}
	_ = d.String() // Strategy
	d.Uvarint()    // the meta-document count
	for i := 0; i < k; i++ {
		d.Uvarint()
		d.Uvarint()
		d.U64()
	}
	d.Uvarint()
	d.Uvarint()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	manifest[len(manifest)-d.Remaining()] ^= 1
	return manifest
}

// openErrorAt opens img at the given GOMAXPROCS and returns the error text.
func openErrorAt(t *testing.T, coll *xmlgraph.Collection, procs int, img []byte) string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ix, err := OpenSnapshotBytes(coll, img)
	if err == nil {
		ix.Close()
		t.Fatalf("GOMAXPROCS %d: a damaged snapshot opened", procs)
	}
	return err.Error()
}

// parallelOpenCollection and parallelOpenConfig give a dozen HOPI meta
// documents of about 150 elements each: sections whose decoding takes long
// enough for the open's other worker to claim and fail the next one.
func parallelOpenCollection() *xmlgraph.Collection {
	return testutil.Generate(testutil.Linked, 21, 150, 30, 300)
}

func parallelOpenConfig() Config { return Config{Kind: UnconnectedHOPI, PartitionSize: 150} }

// TestOpenErrorIsLowestMeta: the snapshot open runs its meta documents on a
// worker pool, and must still fail exactly as a serial open does — with the
// lowest failing meta document's error, whichever worker reaches a failure
// first.  Two sections k1 < k2 = k1+1 are damaged, in a raw and in a
// compressed container (the same hopi-c sections; only the compressed
// manifest has the raw-size trailer): k1's last run, so that it fails only
// once the whole section is decoded, and k2 emptied, so that it fails at
// once.  Separately,
// a fingerprint is forged before or after the damaged k1.  The error text
// must name the earlier failure and be the same at GOMAXPROCS 1, 2 and 4, on
// every try.
func TestOpenErrorIsLowestMeta(t *testing.T) {
	coll := parallelOpenCollection()
	ix, err := Build(coll, parallelOpenConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts SnapshotV2Options
	}{{"raw", SnapshotV2Options{}}, {"compressed", compressOpts}} {
		var buf bytes.Buffer
		if _, err := ix.WriteSnapshotV2With(&buf, c.opts); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		snap, err := storage.OpenSnapshotBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		nMetas := snap.NumSections() - 1
		k1 := nMetas / 2
		if nMetas < 8 || snap.Section(k1+1).Kind != storage.SectionHOPIC {
			t.Fatalf("%s: %d sections, section %d of kind %s", c.name, nMetas, k1, storage.SectionKindName(snap.Section(k1+1).Kind))
		}
		k2 := k1 + 1
		damage := func(i int, data []byte) []byte {
			switch i - 1 {
			case k1:
				data[len(data)-1] |= 0x80 // the last varint runs past its run
			case k2:
				return nil
			}
			return data
		}
		forge := func(k int) func(int, []byte) []byte {
			return func(i int, data []byte) []byte {
				if i == 0 {
					return forgeFingerprint(t, data, k)
				}
				return damage(i, data)
			}
		}
		for _, tc := range []struct {
			name, want string
			img        []byte
		}{
			{"two damaged sections", fmt.Sprintf("flix: meta %d: ", k1), rewriteSnapshot(t, raw, damage)},
			{"later fingerprint forged", fmt.Sprintf("flix: meta %d: ", k1), rewriteSnapshot(t, raw, forge(k2))},
			{"earlier fingerprint forged", fmt.Sprintf("flix: meta %d: snapshot fingerprint mismatch", k1-1), rewriteSnapshot(t, raw, forge(k1-1))},
		} {
			serial := openErrorAt(t, coll, 1, tc.img)
			if !strings.HasPrefix(serial, tc.want) {
				t.Fatalf("%s/%s: serial open: %s, want it to begin %q", c.name, tc.name, serial, tc.want)
			}
			t.Logf("%s/%s (%d sections): %s", c.name, tc.name, nMetas, serial)
			for try := 0; try < 5; try++ {
				for _, procs := range []int{2, 4} {
					if got := openErrorAt(t, coll, procs, tc.img); got != serial {
						t.Fatalf("%s/%s: GOMAXPROCS %d: %s; serial open: %s", c.name, tc.name, procs, got, serial)
					}
				}
			}
		}
	}
}

// TestConcurrentOpensOfOneFile opens one mapped compressed snapshot from
// several goroutines at once — each open itself a worker pool — and every
// generation must answer like the build.  Run it under -race.
func TestConcurrentOpensOfOneFile(t *testing.T) {
	coll := parallelOpenCollection()
	ix, err := Build(coll, parallelOpenConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gen.flix")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteSnapshotV2With(f, compressOpts); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := queryFingerprint(ix, coll)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				open, err := OpenSnapshot(coll, path)
				if err != nil {
					t.Error(err)
					return
				}
				if got := queryFingerprint(open, coll); !bytes.Equal(got, want) {
					t.Errorf("an open answers differently from the build: %s", firstDiff(got, want))
				}
				open.Close()
			}
		}()
	}
	wg.Wait()
}
