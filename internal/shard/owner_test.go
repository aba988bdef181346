package shard_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flix"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/testutil"
)

// TestRouterOwnerTableMatchesRing checks the owner table a topology load
// fills: one entry per meta document, each the shard the ring assigns it.
func TestRouterOwnerTableMatchesRing(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 7, 12, 40, 40)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		c := newCluster(t, coll, ix, n, 0)
		owners, ok := c.rt.TopologyOwners()
		if !ok || len(owners) != ix.NumMetaDocuments() {
			t.Fatalf("%d shards: loaded=%v with %d owners, want %d", n, ok, len(owners), ix.NumMetaDocuments())
		}
		ring := shard.NewRing(n, shard.DefaultVNodes)
		for mi, ow := range owners {
			if want := ring.Owner(int32(mi)); int(ow) != want {
				t.Fatalf("%d shards: meta document %d owned by %d, ring says %d", n, mi, ow, want)
			}
		}
	}
}

// TestRouterRejectsForgedMetaOf serves the router a /v1/shard/links whose
// node→meta assignment names a meta document outside [0, NumMetas), or whose
// meta-document count exceeds the nodes: the topology must stay unloaded and
// the router not ready.  The unforged answer loads, so the harness works.
func TestRouterRejectsForgedMetaOf(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 7, 12, 40, 40)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	h := server.New(ix, server.Config{Shard: &server.ShardConfig{ID: 0, Count: 1}, CacheSize: -1}).Handler()
	for _, tc := range []struct {
		name  string
		forge func(lr *shard.LinksResponse)
		loads bool
	}{
		{"unforged", func(*shard.LinksResponse) {}, true},
		{"meta past the count", func(lr *shard.LinksResponse) { lr.MetaOf[len(lr.MetaOf)-1] = int32(lr.NumMetas) }, false},
		{"negative meta", func(lr *shard.LinksResponse) { lr.MetaOf[0] = -1 }, false},
		{"count past the nodes", func(lr *shard.LinksResponse) { lr.NumMetas = lr.NumNodes + 1 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var served atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/shard/links" {
					h.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				var lr shard.LinksResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
				tc.forge(&lr)
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(&lr) //nolint:errcheck // the router sees a cut body as a failed load
				served.Add(1)
			}))
			defer ts.Close()
			rt, err := shard.NewRouter(coll, shard.RouterConfig{Shards: []string{ts.URL}, ProbeInterval: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rt.Start(ctx)
			deadline := time.Now().Add(10 * time.Second)
			for served.Load() < 3 && !rt.Ready() && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if tc.loads {
				wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
				defer wcancel()
				if err := rt.WaitReady(wctx); err != nil {
					t.Fatalf("unforged topology never loaded: %v", err)
				}
				return
			}
			if served.Load() < 3 {
				t.Fatalf("the router asked for the topology %d times in 10 s", served.Load())
			}
			if owners, ok := rt.TopologyOwners(); ok || rt.Ready() {
				t.Fatalf("forged topology loaded (%d owners), ready=%v", len(owners), rt.Ready())
			}
		})
	}
}
