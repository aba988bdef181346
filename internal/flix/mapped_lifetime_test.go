package flix

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
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
