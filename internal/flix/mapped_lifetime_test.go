package flix

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/testutil"
)

// gcWriter gives the snapshot finalizer its chance on every Write: a
// collection, then time for the finalizer goroutine to run.
type gcWriter struct{ bytes.Buffer }

func (w *gcWriter) Write(p []byte) (int, error) {
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.Gosched()
	}
	time.Sleep(time.Millisecond)
	return w.Buffer.Write(p)
}

// TestMappedLifetimeSnapshotWrite re-persists a mapped index whose last
// reference is the WriteSnapshotV2 call itself.  The per-meta-document
// indexes alias the mapping but do not keep it reachable — only the Index
// does — so the writer must hold the Index until the last section is
// encoded.  If it does not, the finalizer unmaps the file mid-write and the
// next section read is a SIGSEGV: a crashed test binary.
func TestMappedLifetimeSnapshotWrite(t *testing.T) {
	coll := goldenCollection()
	fresh, err := Build(coll, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := fresh.WriteSnapshotV2(&want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gen-000001.flix")
	if err := os.WriteFile(path, want.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenSnapshot(coll, path)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.StorageInfo().Mapped {
		t.Skip("platform cannot map snapshots")
	}
	var got gcWriter
	if _, err := ix.WriteSnapshotV2(&got); err != nil { // the last use of ix
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("snapshot re-persisted from the mapping differs from the one it was opened from")
	}
}

// TestMappedLifetimeSharedDecomposition: the collection keeps the
// decomposition of its generations alive, so the decomposition must not keep
// a generation's mapping alive, nor read from it.  Every index over a mapped
// snapshot is dropped while the collection — and with it the Set they shared
// — stays; the finalizer must still unmap the file, and the Set must hash and
// serve a later generation as before.  A Set aliasing mapped bytes would read
// unmapped memory there: a SIGSEGV, a failed test binary.
func TestMappedLifetimeSharedDecomposition(t *testing.T) {
	coll := goldenCollection()
	built, err := Build(coll, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gen-000001.flix")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.WriteSnapshotV2With(f, SnapshotV2Options{Compress: true}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if testutil.Mappings(path) < 0 {
		t.Skip("no /proc/self/maps to count mappings in")
	}
	set, before := built.set, setHash(built.set)
	for i := 0; i < 2; i++ {
		ix, err := OpenSnapshot(coll, path)
		if err != nil {
			t.Fatal(err)
		}
		if !ix.StorageInfo().Mapped {
			t.Skip("platform cannot map snapshots")
		}
		if ix.set != set {
			t.Fatal("the mapped generation has a decomposition of its own")
		}
		if err := sameAnswers(coll, built, ix); err != nil {
			t.Fatal(err)
		}
	}
	// Both generations are unreachable now; the collection and its Set are not.
	for deadline := time.Now().Add(10 * time.Second); testutil.Mappings(path) > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d mappings of the snapshot survive their indexes: the kept decomposition holds them", testutil.Mappings(path))
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if keptSet(coll) != set || setHash(set) != before {
		t.Fatal("the kept decomposition changed when its mapped generations were released")
	}
	ix, err := OpenSnapshot(coll, path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := sameAnswers(coll, built, ix); err != nil {
		t.Errorf("generation opened after the release: %v", err)
	}
}
