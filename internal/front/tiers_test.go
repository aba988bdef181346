package front_test

// Both serving tiers over one small corpus, for the wire-contract suite,
// the golden replay and the /metrics parity test.  Everything here goes
// through the tiers' public constructors and handlers only, so the same
// files build against any commit that has server.New and shard.NewRouter —
// which is how testdata/golden.json was recorded at the commit before the
// front existed.

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dblp"
	"repro/internal/flix"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/xmlgraph"
)

// corpusDocs is the size of the shared DBLP-style corpus.
const corpusDocs = 40

// limits are the request limits both tiers run under in these tests.
type limits struct {
	maxInFlight int
	maxBatch    int
	logger      *log.Logger
}

// corpus is the collection, its index (small partitions, so descendants of
// late publications cross meta documents and therefore shards) and a few
// landmarks the request tables address.  The golden was recorded on
// hybridIndex; exactIndex is for comparing answers across tiers: a node
// reports the paper's approximate distances across PPO meta documents
// (Hybrid, MaximalPPO) where the router's gather is exact, while HOPI
// labels are distance-exact on both — a property of the engine the front
// has no say in.
type corpus struct {
	coll *xmlgraph.Collection
	ix   *flix.Index
	hub  string // document with the largest citation reach
	leaf string // the oldest document: cites nothing
}

var (
	hybridIndex = flix.Config{Kind: flix.Hybrid, PartitionSize: 120}
	exactIndex  = flix.Config{Kind: flix.UnconnectedHOPI, PartitionSize: 120}
)

func newCorpus(t testing.TB, cfg flix.Config) *corpus {
	t.Helper()
	gen := dblp.Generate(dblp.Scaled(corpusDocs))
	coll := gen.BuildGraph()
	ix, err := flix.Build(coll, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &corpus{coll: coll, ix: ix, hub: gen.DocName(gen.HubIndex), leaf: gen.DocName(0)}
}

// tier is one serving tier under test, reachable over real HTTP.
type tier struct {
	name string // "node" or "router"
	url  string
}

func serve(t testing.TB, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// newNode serves the corpus from a single flixd-style server.
func newNode(t testing.TB, c *corpus, l limits) tier {
	t.Helper()
	s := server.New(c.ix, server.Config{MaxInFlight: l.maxInFlight, MaxBatch: l.maxBatch, Logger: l.logger})
	return tier{name: "node", url: serve(t, s.Handler())}
}

// shardNodeURL serves the corpus from a node in shard mode.
func shardNodeURL(t testing.TB, c *corpus) string {
	t.Helper()
	s := server.New(c.ix, server.Config{Shard: &server.ShardConfig{ID: 0, Count: 1}, CacheSize: -1})
	return serve(t, s.Handler())
}

// newRouter serves the corpus from a router over two in-process shards.
func newRouter(t testing.TB, c *corpus, l limits) tier {
	t.Helper()
	tr, start := newUnstartedRouter(t, c, l)
	start()
	return tr
}

// newUnstartedRouter is newRouter before it probes its shards: it answers
// 503 until start, which returns once the router is ready.
func newUnstartedRouter(t testing.TB, c *corpus, l limits) (tier, func()) {
	t.Helper()
	const n = 2
	urls := make([]string, n)
	for i := range urls {
		s := server.New(c.ix, server.Config{Shard: &server.ShardConfig{ID: i, Count: n}, CacheSize: -1})
		urls[i] = serve(t, s.Handler())
	}
	rt, err := shard.NewRouter(c.coll, shard.RouterConfig{
		Shards:        urls,
		MaxInFlight:   l.maxInFlight,
		MaxBatch:      l.maxBatch,
		Logger:        l.logger,
		ProbeInterval: 20 * time.Millisecond,
		RetryBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := func() {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		rt.Start(ctx)
		for deadline := time.Now().Add(10 * time.Second); !rt.Ready(); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("router never became ready")
			}
		}
	}
	return tier{name: "router", url: serve(t, rt.Handler())}, start
}

// newPendingTiers returns both tiers before they can serve: a node without
// its first generation, a router that has not probed its shards yet.
func newPendingTiers(t testing.TB, c *corpus) []tier {
	t.Helper()
	s := server.NewPending(c.coll, server.Config{})
	rt, err := shard.NewRouter(c.coll, shard.RouterConfig{Shards: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	return []tier{
		{name: "node", url: serve(t, s.Handler())},
		{name: "router", url: serve(t, rt.Handler())},
	}
}

// bothTiers builds a ready node and a ready router under the same limits.
func bothTiers(t testing.TB, c *corpus, l limits) []tier {
	t.Helper()
	return []tier{newNode(t, c, l), newRouter(t, c, l)}
}

// call is one request of a table: GET when body is empty, POST otherwise.
type call struct {
	path string
	body string
	// header sets extra request headers as "Name: value".
	header string
}

func (c call) method() string {
	if c.body != "" {
		return http.MethodPost
	}
	return http.MethodGet
}

// do sends the call and returns status, headers and the whole body.
func (tr tier) do(t testing.TB, c call) (*http.Response, string) {
	t.Helper()
	var rd io.Reader
	if c.body != "" {
		rd = strings.NewReader(c.body)
	}
	req, err := http.NewRequest(c.method(), tr.url+c.path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if c.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if name, value, ok := strings.Cut(c.header, ": "); ok {
		req.Header.Set(name, value)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s %s: %v", tr.name, c.method(), c.path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s %s: reading body: %v", tr.name, c.method(), c.path, err)
	}
	return resp, string(b)
}
