package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flix"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
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

// TestRouterRefusesForeignDecomposition serves the router a /healthz whose
// shard block announces a decomposition the router cannot reproduce on its
// own collection: an unknown kind, a partition size that does not make the
// announced fingerprint, a fingerprint that is not the assignment's, and an
// honest announcement made over a collection with the router's node count but
// other links.  The topology must stay unloaded and the router not ready.
// The unforged announcement loads, so the harness works.
func TestRouterRefusesForeignDecomposition(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 7, 12, 40, 40)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	// The same documents with half of the links: every node ID resolves,
	// but the partitioning differs.
	relinked := testutil.Generate(testutil.Linked, 7, 12, 40, 20)
	if relinked.NumNodes() != coll.NumNodes() {
		t.Fatalf("relinked collection has %d nodes, want %d", relinked.NumNodes(), coll.NumNodes())
	}
	if metaOf, metas, err := flix.Assign(relinked, ix.Config()); err != nil || flix.Fingerprint(metaOf, metas) == ix.Fingerprint() {
		t.Fatalf("the relinked collection decomposes to the same fingerprint (err %v)", err)
	}
	if metaOf, metas, _ := flix.Assign(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 7, MinTreeDocs: 2}); flix.Fingerprint(metaOf, metas) == ix.Fingerprint() {
		t.Fatal("partition size 7 decomposes to the same fingerprint as 20")
	}
	h := server.New(ix, server.Config{Shard: &server.ShardConfig{ID: 0, Count: 1}, CacheSize: -1}).Handler()
	for _, tc := range []struct {
		name  string
		coll  *xmlgraph.Collection // the router's
		forge func(sh *shard.ShardHealth)
		loads bool
	}{
		{"unforged", coll, func(*shard.ShardHealth) {}, true},
		{"unknown kind", coll, func(sh *shard.ShardHealth) { sh.Decomposition.Kind = "hybird" }, false},
		{"partition size", coll, func(sh *shard.ShardHealth) { sh.Decomposition.PartitionSize = 7 }, false},
		{"fingerprint", coll, func(sh *shard.ShardHealth) { sh.Fingerprint = "0123456789abcdef" }, false},
		{"other links", relinked, func(*shard.ShardHealth) {}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var served atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/healthz" {
					h.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				var hr shard.HealthResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil || hr.Shard == nil {
					http.Error(w, fmt.Sprintf("healthz without a shard block (%v)", err), http.StatusInternalServerError)
					return
				}
				tc.forge(hr.Shard)
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(&hr) //nolint:errcheck // the router sees a cut body as a failed probe
				served.Add(1)
			}))
			defer ts.Close()
			rt, err := shard.NewRouter(tc.coll, shard.RouterConfig{Shards: []string{ts.URL}, ProbeInterval: 10 * time.Millisecond})
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
				t.Fatalf("the router probed the shard %d times in 10 s", served.Load())
			}
			if owners, ok := rt.TopologyOwners(); ok || rt.Ready() {
				t.Fatalf("foreign topology loaded (%d owners), ready=%v", len(owners), rt.Ready())
			}
		})
	}
}

// TestRouterReloadsPastDeadShard: with one shard of two down, the live one
// moving to another decomposition moves the router with it.  A dead shard
// announces nothing, so its last fingerprint cannot pin the old topology.
func TestRouterReloadsPastDeadShard(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 7, 12, 40, 40)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	next, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 30})
	if err != nil {
		t.Fatal(err)
	}
	if next.Fingerprint() == ix.Fingerprint() {
		t.Fatal("partition sizes 20 and 30 decompose to the same fingerprint")
	}
	var (
		shards []*server.Server
		urls   []string
		hs     []*httptest.Server
	)
	for i := 0; i < 2; i++ {
		s := server.New(ix, server.Config{Shard: &server.ShardConfig{ID: i, Count: 2}, CacheSize: -1})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		shards, urls, hs = append(shards, s), append(urls, ts.URL), append(hs, ts)
	}
	rt, err := shard.NewRouter(coll, shard.RouterConfig{Shards: urls, Quorum: 1, ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.Start(ctx)
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := rt.WaitReady(wctx); err != nil {
		t.Fatalf("router never became ready: %v", err)
	}
	hs[1].Close()
	shards[0].Install(next, "repartitioned")
	topology := func() (fingerprint string) {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
		var body struct {
			Topology struct {
				Fingerprint string `json:"fingerprint"`
			} `json:"topology"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("/statsz: %v", err)
		}
		return body.Topology.Fingerprint
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		fp := topology()
		if rt.Ready() && fp == next.Fingerprint() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("10 s after the reindex: ready=%v on fingerprint %s, want %s", rt.Ready(), fp, next.Fingerprint())
		}
	}
}

// lockedBuffer is a log destination the test reads while the prober writes.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRouterRefusesOnce: a router over a foreign collection derives and
// logs a shard's refused announcement once, not on every probe tick; an
// announcement that changes is derived again.
func TestRouterRefusesOnce(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 7, 12, 40, 40)
	relinked := testutil.Generate(testutil.Linked, 7, 12, 40, 20) // the router's: other links
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	next, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 30})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(ix, server.Config{Shard: &server.ShardConfig{ID: 0, Count: 1}, CacheSize: -1})
	h := s.Handler()
	var probes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			probes.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	var logged lockedBuffer
	rt, err := shard.NewRouter(relinked, shard.RouterConfig{
		Shards: []string{ts.URL}, ProbeInterval: 10 * time.Millisecond, Logger: log.New(&logged, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.Start(ctx)
	// waitProbes waits for n more probes: n-1 whole probe intervals.
	waitProbes := func(n int64) {
		t.Helper()
		want := probes.Load() + n
		for deadline := time.Now().Add(10 * time.Second); probes.Load() < want; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d probes in 10 s, want %d", probes.Load(), want)
			}
		}
	}
	const line = "topology from shard 0 refused"
	waitProbes(6)
	if n := strings.Count(logged.String(), line); n != 1 {
		t.Fatalf("%d refusals logged over 6 probes of one announcement, want 1:\n%s", n, &logged)
	}
	s.Install(next, "repartitioned")
	waitProbes(6)
	if n := strings.Count(logged.String(), line); n != 2 {
		t.Fatalf("%d refusals logged after the announcement changed, want 2:\n%s", n, &logged)
	}
	if rt.Ready() {
		t.Fatal("a foreign topology loaded")
	}
}
