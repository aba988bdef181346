package main

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	flix "repro"
	"repro/internal/rebuild"
	"repro/internal/testutil"
)

// TestInitialIndexWarmStart drives warm start over a -snapshot-dir: a v2
// generation is served mapped, and a directory whose newest file is a
// canonical stream — what binaries before the single-format change persisted
// by default — is logged as unusable and answered with a fresh build, not an
// exit.
func TestInitialIndexWarmStart(t *testing.T) {
	// The collection and configuration of internal/flix's golden fixtures.
	coll := testutil.Generate(testutil.Linked, 11, 10, 10, 15)
	cfg := flix.Config{Kind: flix.Hybrid, PartitionSize: 60}
	stream, err := os.ReadFile("../../internal/flix/testdata/golden-v1.flix")
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	dir := t.TempDir()
	built := initialIndex(coll, cfg, "", dir, 1, true) // empty directory: builds
	if got := built.StorageInfo().Format; got != "heap" {
		t.Fatalf("empty snapshot dir: Format = %q, want heap", got)
	}
	f, err := os.Create(filepath.Join(dir, rebuild.SnapshotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.WriteSnapshotV2(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	warm := initialIndex(coll, cfg, "", dir, 1, true)
	defer warm.Close()
	if si := warm.StorageInfo(); si.Format != "v2" || !si.Mapped {
		t.Errorf("v2 generation: StorageInfo = %+v, want v2 and mapped", si)
	}
	if !strings.Contains(logged.String(), "warm-started from") {
		t.Errorf("no warm-start line in the log:\n%s", &logged)
	}

	logged.Reset()
	if err := os.WriteFile(filepath.Join(dir, rebuild.SnapshotName(2)), stream, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := initialIndex(coll, cfg, "", dir, 1, true)
	if got := fresh.StorageInfo().Format; got != "heap" {
		t.Errorf("canonical stream as newest generation: Format = %q, want a fresh heap build", got)
	}
	if !strings.Contains(logged.String(), "unusable") {
		t.Errorf("no 'unusable' warning in the log:\n%s", &logged)
	}
}
