package flix

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// goldenCollection regenerates the exact collection the committed fixture
// was built from: testutil generation is deterministic in the seed, so the
// collection — and therefore the decomposition the loader validates the
// snapshot against — is stable across checkouts.
func goldenCollection() *xmlgraph.Collection {
	return testutil.Generate(testutil.Linked, 11, 10, 10, 15)
}

func goldenConfig() Config {
	return Config{Kind: Hybrid, PartitionSize: 60}
}

const goldenPath = "testdata/golden-v1.flix"

// TestSnapshotGoldenFixture pins the canonical compact stream: a fresh build
// of the golden configuration must write exactly the bytes committed under
// testdata/, and SizeBytes — Table 1's measure — must be their length.
// Nothing reads the stream back; TestSnapshotCorrupt holds every open entry
// point to rejecting it.
//
// Regenerate (after an intentional change to what Table 1 counts) with:
//
//	UPDATE_GOLDEN=1 go test -run TestSnapshotGoldenFixture ./internal/flix
func TestSnapshotGoldenFixture(t *testing.T) {
	fresh, err := Build(goldenCollection(), goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := fresh.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, buf.Len())
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatalf("fresh WriteTo (%d bytes) differs from the committed stream (%d bytes)", buf.Len(), len(raw))
	}
	if sz, err := fresh.SizeBytes(); err != nil || sz != int64(len(raw)) {
		t.Errorf("SizeBytes = %d, %v; want %d", sz, err, len(raw))
	}
}

// TestSizeBytesEncodesOnce: /statsz asks the serving generation for its size
// on every scrape, so a heap-built index must encode the canonical stream
// once — concurrent first callers included — and answer from memory after.
func TestSizeBytesEncodesOnce(t *testing.T) {
	ix, err := Build(goldenCollection(), goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.WriteTo(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sz, err := ix.SizeBytes(); err != nil || sz != want {
				t.Errorf("SizeBytes = %d, %v; want %d", sz, err, want)
			}
		}()
	}
	wg.Wait()
	// Encoding allocates (WriteStream buffers its writes).
	if allocs := testing.AllocsPerRun(10, func() { ix.SizeBytes() }); allocs != 0 {
		t.Errorf("a repeated SizeBytes allocates %v times: it re-encodes", allocs)
	}
}

// TestSnapshotCorrupt feeds foreign files to every open entry point — the
// committed canonical stream (what binaries before the single-format change
// persisted by default), truncations and byte flips of it, garbage, and a
// well-formed container whose manifest names no known configuration.
// Each must come back as an error wrapping ErrSnapshotCorrupt: never a
// panic, never an index.
func TestSnapshotCorrupt(t *testing.T) {
	coll := goldenCollection()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	v4, err := os.ReadFile(goldenV4Path)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gen-000001.flix")
	images := map[string][]byte{
		"canonical stream": raw,
		"container naming an unknown configuration kind": forgedKind(t, v4),
		"empty":          nil,
		"garbage":        []byte("XXXXgarbage"),
		"v2 magic alone": []byte(storage.SnapshotMagic),
	}
	for _, n := range []int{1, 3, 8, len(raw) / 2, len(raw) - 1} {
		images[fmt.Sprintf("stream truncated to %d", n)] = raw[:n]
	}
	for i := 0; i < len(raw); i += len(raw)/64 + 1 {
		bad := bytes.Clone(raw)
		bad[i] ^= 0x55
		images[fmt.Sprintf("stream with byte %d flipped", i)] = bad
	}
	for what, img := range images {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		for name, open := range map[string]func() (*Index, error){
			"OpenSnapshotBytes":      func() (*Index, error) { return OpenSnapshotBytes(coll, img) },
			"OpenSnapshot":           func() (*Index, error) { return OpenSnapshot(coll, path) },
			"OpenSnapshotWith(heap)": func() (*Index, error) { return OpenSnapshotWith(coll, path, OpenOptions{Mmap: false}) },
		} {
			ix, err := open()
			if ix != nil {
				t.Fatalf("%s(%s) returned an index", name, what)
			}
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("%s(%s) = %v, want ErrSnapshotCorrupt", name, what, err)
			}
		}
	}
}

// streamBytes serializes one exact-order descendants stream.
func streamBytes(ix *Index, start xmlgraph.NodeID, tag string) []byte {
	var b bytes.Buffer
	ix.Descendants(start, tag, Options{ExactOrder: true}, func(r Result) bool {
		fmt.Fprintf(&b, "%d:%d;", r.Node, r.Dist)
		return true
	})
	return b.Bytes()
}
