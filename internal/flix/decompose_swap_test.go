package flix_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/flix"
	"repro/internal/rebuild"
	"repro/internal/server"
	"repro/internal/testutil"
)

// TestDecompositionAcrossReindexAndSwap follows one decomposition through the
// serving stack: the generation a forced rebuild.Manager reindex builds and
// the one a hot swap opens from the snapshot that reindex persisted are made
// from the Set the first build computed, queries run on all three, and the
// Set hashes the same afterwards as before anything used it.
func TestDecompositionAcrossReindexAndSwap(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 11, 40, 20, 120)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	set := flix.SetOf(ix)
	before := flix.SetHash(set)

	s := server.New(ix, server.Config{CacheSize: 64})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	query := func() {
		t.Helper()
		for _, url := range []string{"/v1/descendants?start=" + coll.Doc(0).Name + "&tag=a", "/v1/query?q=//a//b&k=5"} {
			resp, err := http.Get(srv.URL + url)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s on generation %d: %s", url, s.Generation(), resp.Status)
			}
		}
	}
	query()

	dir := t.TempDir()
	m := rebuild.New(coll, s, rebuild.Config{SnapshotDir: dir, SnapshotCompress: true})
	if _, err := m.Reindex(true); err != nil {
		t.Fatal(err)
	}
	rebuilt := s.CurrentIndex()
	if rebuilt == ix || flix.SetOf(rebuilt) != set {
		t.Fatalf("the forced reindex did not build a new generation over the kept decomposition")
	}
	query()

	path, err := rebuild.LatestSnapshot(dir)
	if err != nil || path == "" {
		t.Fatalf("the reindex persisted no snapshot (%q, %v)", path, err)
	}
	opened, err := flix.OpenSnapshot(coll, path)
	if err != nil {
		t.Fatal(err)
	}
	if flix.SetOf(opened) != set {
		t.Fatal("the snapshot opened over a decomposition of its own")
	}
	s.Install(opened, "hot swap")
	query()

	if flix.KeptSet(coll) != set {
		t.Error("reindex and swap under one configuration replaced the kept decomposition")
	}
	if after := flix.SetHash(set); after != before {
		t.Error("the decomposition changed while three generations served from it")
	}
}
