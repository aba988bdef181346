package shard_test

// The differential cluster harness: a full multi-shard cluster — N flixd
// shard servers plus the router, all real HTTP over httptest — checked
// element-for-element against the single-process BFS oracle, at 1, 2 and 4
// shards, with and without shards failing mid-query.  Run under -race this
// also exercises the concurrent fan-out, the prober and the generation
// machinery together.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flix"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// cluster is one in-process scatter-gather deployment: n shard servers
// sharing a single prebuilt index, fronted by a router.
type cluster struct {
	t      testing.TB
	coll   *xmlgraph.Collection
	shards []*httptest.Server
	// kill[i], when set, makes shard i answer its eval records with 500 —
	// the mid-query failure injection.  Health probes keep succeeding, so
	// the failure is invisible to the prober and must be absorbed by the
	// gather loop itself.  These hooks sit in a record proxy in front of
	// each shard (faults), which the router talks to.
	kill []atomic.Bool
	// garble[i], when set, makes shard i answer its eval records with 200
	// and a payload that is not an eval frame; evals[i] counts the eval
	// records shard i received.
	garble []atomic.Bool
	evals  []atomic.Int64
	// forge[i], when set, rewrites shard i's decoded eval answer before it
	// is sent: a well-formed frame with the shard's own fingerprint.
	forge []atomic.Pointer[func(*shard.EvalResponse)]
	// logged collects the router's log lines.
	logged lockedBuffer
	urls   []string
	// armKill, when set, triggers once on the next eval record any shard
	// receives: that shard's ring successor is killed — guaranteed
	// mid-query, after the query already fanned out.
	armKill atomic.Bool
	rt      *shard.Router
	router  *httptest.Server
	stop    context.CancelFunc
}

func newCluster(t testing.TB, coll *xmlgraph.Collection, ix *flix.Index, n int, retries int) *cluster {
	t.Helper()
	c := &cluster{t: t, coll: coll, kill: make([]atomic.Bool, n), garble: make([]atomic.Bool, n),
		evals: make([]atomic.Int64, n), forge: make([]atomic.Pointer[func(*shard.EvalResponse)], n),
		shards: make([]*httptest.Server, n), urls: make([]string, n)}
	for i := 0; i < n; i++ {
		s := server.New(ix, server.Config{
			Shard:     &server.ShardConfig{ID: i, Count: n},
			CacheSize: -1,
		})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		c.shards[i] = ts
		c.urls[i] = c.faults(i, n, ts.URL).URL
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.stop = cancel
	t.Cleanup(cancel)
	c.rt, c.router = c.newRouter(ctx, retries, 0)
	return c
}

// faults puts the record proxy carrying the fault hooks in front of shard
// i of n, served at url.
func (c *cluster) faults(i, n int, url string) *recordProxy {
	p := newRecordProxy(c.t, url)
	p.onRecord = func(_, _ []byte) (int, []byte, bool) {
		c.evals[i].Add(1)
		if c.armKill.CompareAndSwap(true, false) {
			c.kill[(i+1)%n].Store(true)
		}
		switch {
		case c.kill[i].Load():
			return http.StatusInternalServerError, []byte("injected failure"), true
		case c.garble[i].Load():
			return http.StatusOK, []byte{1, 0, 1, 0, 0, 0, 0, 200}, true // a frame cut off inside its results
		}
		return 0, nil, false
	}
	p.onAnswer = func(status int, payload []byte) (int, []byte) {
		forge := c.forge[i].Load()
		if forge == nil || status != http.StatusOK {
			return status, payload
		}
		var resp shard.EvalResponse
		if err := resp.DecodeFrame(payload); err != nil {
			return http.StatusInternalServerError, []byte(err.Error())
		}
		(*forge)(&resp)
		frame, err := resp.AppendFrame(nil)
		if err != nil {
			return http.StatusInternalServerError, []byte(err.Error())
		}
		return http.StatusOK, frame
	}
	return p
}

// newRouter starts one more ready router over the cluster's shards, with
// its own handler; hopBudget 0 is the default budget.
func (c *cluster) newRouter(ctx context.Context, retries, hopBudget int) (*shard.Router, *httptest.Server) {
	c.t.Helper()
	rt, err := shard.NewRouter(c.coll, shard.RouterConfig{
		Shards:        c.urls,
		ProbeInterval: 20 * time.Millisecond,
		ShardTimeout:  5 * time.Second,
		Retries:       retries,
		RetryBackoff:  time.Millisecond,
		MaxLimit:      1 << 20,
		HopBudget:     hopBudget,
		Logger:        log.New(&c.logged, "", 0),
	})
	if err != nil {
		c.t.Fatal(err)
	}
	rt.Start(ctx)
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := rt.WaitReady(wctx); err != nil {
		c.t.Fatalf("router never became ready: %v", err)
	}
	ts := httptest.NewServer(rt.Handler())
	c.t.Cleanup(ts.Close)
	return rt, ts
}

func (c *cluster) clearKills() {
	for i := range c.kill {
		c.kill[i].Store(false)
	}
	c.armKill.Store(false)
}

// descendantsResp is the router's /v1/descendants wire shape.
type descendantsResp struct {
	Results []struct {
		Node xmlgraph.NodeID `json:"node"`
		Dist int32           `json:"dist"`
	} `json:"results"`
	Count        int   `json:"count"`
	TimedOut     bool  `json:"timedOut"`
	Partial      bool  `json:"partial"`
	FailedShards []int `json:"failedShards"`
}

func (c *cluster) getJSON(path string, out any) *http.Response {
	c.t.Helper()
	return c.getJSONFrom(c.router.URL, path, out)
}

// getJSONFrom is getJSON against the router served at base.
func (c *cluster) getJSONFrom(base, path string, out any) *http.Response {
	c.t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		c.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		c.t.Fatalf("GET %s: decode: %v", path, err)
	}
	return resp
}

func (c *cluster) descendants(start xmlgraph.NodeID, tag string, k int) (descendantsResp, *http.Response) {
	c.t.Helper()
	var dr descendantsResp
	resp := c.getJSON(fmt.Sprintf("/v1/descendants?start=%d&tag=%s&k=%d&timeout=20s", start, tag, k), &dr)
	return dr, resp
}

// oracleFor returns the BFS ground truth for start//tag as (dist, node)
// sorted pairs; an empty tag is the wildcard.
func oracleFor(coll *xmlgraph.Collection, start xmlgraph.NodeID, tag string) []xmlgraph.NodeDist {
	if tag != "" {
		return coll.DescendantsByTag(start, tag)
	}
	dist := coll.BFSDistances(start)
	var out []xmlgraph.NodeDist
	for n, d := range dist {
		if d > 0 {
			out = append(out, xmlgraph.NodeDist{Node: xmlgraph.NodeID(n), Dist: d})
		}
	}
	xmlgraph.SortNodeDists(out)
	return out
}

func buildIndex(t *testing.T, coll *xmlgraph.Collection) *flix.Index {
	t.Helper()
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestClusterDescendantsMatchesOracle is the tentpole differential check:
// for every graph family, the sharded scatter-gather answer over real HTTP
// equals the BFS oracle element for element — same nodes, exact shortest
// distances, exact (dist, node) order — at 1, 2 and 4 shards.
func TestClusterDescendantsMatchesOracle(t *testing.T) {
	for _, fam := range testutil.Families() {
		for seed := int64(1); seed <= 2; seed++ {
			coll := testutil.Generate(fam, seed, 12, 40, 30)
			ix := buildIndex(t, coll)
			for _, n := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/seed%d/shards%d", fam, seed, n), func(t *testing.T) {
					c := newCluster(t, coll, ix, n, 0)
					rng := rand.New(rand.NewSource(seed * 131))
					tags := coll.Tags()
					for q := 0; q < 6; q++ {
						start := xmlgraph.NodeID(rng.Intn(coll.NumNodes()))
						tag := tags[rng.Intn(len(tags))]
						oracle := oracleFor(coll, start, tag)
						dr, _ := c.descendants(start, tag, 1<<20)
						if dr.Partial || dr.TimedOut {
							t.Fatalf("%d//%s: clean cluster answered partial=%v timedOut=%v",
								start, tag, dr.Partial, dr.TimedOut)
						}
						if len(dr.Results) != len(oracle) {
							t.Fatalf("%d//%s: %d results, oracle %d", start, tag, len(dr.Results), len(oracle))
						}
						for i, r := range dr.Results {
							if r.Node != oracle[i].Node || r.Dist != oracle[i].Dist {
								t.Fatalf("%d//%s: result %d = (%d,%d), oracle (%d,%d)",
									start, tag, i, r.Node, r.Dist, oracle[i].Node, oracle[i].Dist)
							}
						}
					}
				})
			}
		}
	}
}

// TestClusterTopKEarlyStop checks that a bounded k is exact end to end —
// the router's watermark stop, the limit it sends the shards and their
// banded early stop: for every graph family, at 1, 2 and 4 shards, for each
// K, with and without the start element and a distance bound, the answer is
// the oracle's K-prefix element for element and is not flagged partial.
func TestClusterTopKEarlyStop(t *testing.T) {
	for _, fam := range testutil.Families() {
		coll := testutil.Generate(fam, 7, 12, 40, 40)
		// A fine partitioning: most gathers cross shards and take rounds.
		ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 25})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", fam, n), func(t *testing.T) {
				c := newCluster(t, coll, ix, n, 0)
				rng := rand.New(rand.NewSource(7))
				tags := append(coll.Tags(), "")
				// Six random queries and a pinned one: on the linked family at
				// two shards, 65//* with k=5 has a result of the prefix behind
				// a hop at exactly the band a shard stops at.
				for q := 0; q < 7; q++ {
					start := xmlgraph.NodeID(rng.Intn(coll.NumNodes()))
					tag := tags[rng.Intn(len(tags))]
					if q == 6 {
						start, tag = 65, ""
					}
					for _, self := range []bool{false, true} {
						for _, maxDist := range []int32{0, 3} {
							var oracle []xmlgraph.NodeDist
							if self && (tag == "" || coll.Tag(start) == tag) {
								oracle = append(oracle, xmlgraph.NodeDist{Node: start})
							}
							for _, nd := range oracleFor(coll, start, tag) {
								if maxDist == 0 || nd.Dist <= maxDist {
									oracle = append(oracle, nd)
								}
							}
							for _, k := range []int{1, 2, 5, 17, 100} {
								path := fmt.Sprintf("/v1/descendants?start=%d&tag=%s&k=%d&maxdist=%d&timeout=20s", start, tag, k, maxDist)
								if self {
									path += "&self=1"
								}
								var dr descendantsResp
								c.getJSON(path, &dr)
								if dr.Partial || dr.TimedOut {
									t.Fatalf("%s: early-stopped query flagged partial=%v timedOut=%v", path, dr.Partial, dr.TimedOut)
								}
								want := oracle[:min(k, len(oracle))]
								if len(dr.Results) != len(want) {
									t.Fatalf("%s: %d results, oracle prefix %d", path, len(dr.Results), len(want))
								}
								for i, r := range dr.Results {
									if r.Node != want[i].Node || r.Dist != want[i].Dist {
										t.Fatalf("%s: result %d = (%d,%d), oracle (%d,%d)",
											path, i, r.Node, r.Dist, want[i].Node, want[i].Dist)
									}
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestClusterConnected checks point-to-point distances against BFS,
// including unreachable pairs.
func TestClusterConnected(t *testing.T) {
	coll := testutil.Generate(testutil.DAGs, 3, 12, 40, 30)
	ix := buildIndex(t, coll)
	c := newCluster(t, coll, ix, 3, 0)
	rng := rand.New(rand.NewSource(17))
	for q := 0; q < 20; q++ {
		from := xmlgraph.NodeID(rng.Intn(coll.NumNodes()))
		to := xmlgraph.NodeID(rng.Intn(coll.NumNodes()))
		want := coll.BFSDistance(from, to)
		var cr struct {
			Connected bool  `json:"connected"`
			Dist      int32 `json:"dist"`
			Partial   bool  `json:"partial"`
		}
		c.getJSON(fmt.Sprintf("/v1/connected?from=%d&to=%d&timeout=20s", from, to), &cr)
		if cr.Partial {
			t.Fatalf("%d->%d: clean cluster answered partial", from, to)
		}
		if cr.Connected != (want >= 0) {
			t.Fatalf("%d->%d: connected=%v, oracle dist %d", from, to, cr.Connected, want)
		}
		if cr.Connected && cr.Dist != want {
			t.Fatalf("%d->%d: dist %d, oracle %d", from, to, cr.Dist, want)
		}
	}
}

// oracleBackend implements query.Backend over plain BFS — the ground truth
// for the ranked evaluator, independent of any index or shard machinery.
type oracleBackend struct{ coll *xmlgraph.Collection }

func (b oracleBackend) Collection() *xmlgraph.Collection { return b.coll }

func (b oracleBackend) Descendants(start xmlgraph.NodeID, tag string, opts flix.Options, fn flix.Emit) {
	for _, nd := range oracleFor(b.coll, start, tag) {
		if opts.MaxDist > 0 && nd.Dist > opts.MaxDist {
			continue
		}
		if !fn(flix.Result{Node: nd.Node, Dist: nd.Dist}) {
			return
		}
	}
}

func (b oracleBackend) Ancestors(start xmlgraph.NodeID, tag string, opts flix.Options, fn flix.Emit) {
}

// TestClusterQueryMatchesOracle checks /v1/query end to end: the ranked
// evaluator over the scatter-gather backend must produce the same matches,
// scores and path lengths as the same evaluator over the BFS oracle.
func TestClusterQueryMatchesOracle(t *testing.T) {
	for _, fam := range testutil.Families() {
		coll := testutil.Generate(fam, 2, 12, 40, 30)
		ix := buildIndex(t, coll)
		c := newCluster(t, coll, ix, 3, 0)
		tags := coll.Tags()
		exprs := []string{
			"//" + tags[0],
			"//" + tags[0] + "//" + tags[1%len(tags)],
			"//" + tags[2%len(tags)] + "//" + tags[0] + "//" + tags[1%len(tags)],
		}
		for _, expr := range exprs {
			pq, err := query.Parse(expr)
			if err != nil {
				t.Fatal(err)
			}
			const k = 25
			want := (&query.Evaluator{Index: oracleBackend{coll}}).EvaluateTopK(pq, k)
			var qr struct {
				Results []struct {
					Node    xmlgraph.NodeID `json:"node"`
					Score   float64         `json:"score"`
					PathLen int32           `json:"pathLen"`
				} `json:"results"`
				Partial bool `json:"partial"`
			}
			c.getJSON("/v1/query?q="+strings.ReplaceAll(expr, "/", "%2F")+fmt.Sprintf("&k=%d&timeout=20s", k), &qr)
			if qr.Partial {
				t.Fatalf("%s/%s: clean cluster answered partial", fam, expr)
			}
			if len(qr.Results) != len(want) {
				t.Fatalf("%s/%s: %d results, oracle %d", fam, expr, len(qr.Results), len(want))
			}
			for i, r := range qr.Results {
				w := want[i]
				if r.Node != w.Node || r.PathLen != w.PathLen || math.Abs(r.Score-w.Score) > 1e-9 {
					t.Fatalf("%s/%s: result %d = (%d, %.6f, %d), oracle (%d, %.6f, %d)",
						fam, expr, i, r.Node, r.Score, r.PathLen, w.Node, w.Score, w.PathLen)
				}
			}
		}
	}
}

// TestClusterShardKilledMidQuery kills one shard mid-query — the first
// shard to receive an eval batch arms the failure of its ring successor,
// so later rounds of the same query hit a dead shard.  Answers must stay
// sound (a subset of the oracle, distances of real paths), and queries that
// actually lost a batch must say so: partial flag, failedShards list and
// the X-Flix-Shards-Failed header.
func TestClusterShardKilledMidQuery(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 11, 12, 40, 40)
	// A fine partitioning maximizes cross-shard hops, so later rounds of
	// most queries genuinely depend on the shard being killed.
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, coll, ix, 3, -1) // -1: no retries, failures surface at once
	rng := rand.New(rand.NewSource(23))
	tags := coll.Tags()
	partials := 0
	for q := 0; q < 25; q++ {
		c.clearKills()
		c.armKill.Store(true)
		start := xmlgraph.NodeID(rng.Intn(coll.NumNodes()))
		tag := tags[rng.Intn(len(tags))]
		oracle := make(map[xmlgraph.NodeID]int32)
		for _, nd := range oracleFor(coll, start, tag) {
			oracle[nd.Node] = nd.Dist
		}
		dr, resp := c.descendants(start, tag, 1<<20)
		for _, r := range dr.Results {
			want, ok := oracle[r.Node]
			if !ok {
				t.Fatalf("%d//%s: result %d not reachable per oracle", start, tag, r.Node)
			}
			if r.Dist < want {
				t.Fatalf("%d//%s: node %d at dist %d, below the true shortest %d", start, tag, r.Node, r.Dist, want)
			}
		}
		if dr.Partial {
			partials++
			if len(dr.FailedShards) == 0 {
				t.Fatalf("%d//%s: partial answer without failedShards", start, tag)
			}
			if resp.Header.Get(shard.FailedShardsHeader) == "" {
				t.Fatalf("%d//%s: partial answer without %s header", start, tag, shard.FailedShardsHeader)
			}
		} else if len(dr.Results) != len(oracle) {
			t.Fatalf("%d//%s: non-partial answer with %d of %d results", start, tag, len(dr.Results), len(oracle))
		}
	}
	if partials == 0 {
		t.Fatal("failure injection never produced a partial answer — the kill hook is not firing")
	}

	// The cluster must recover once the failure clears: health probes kept
	// passing throughout, so the next query is clean and complete.
	c.clearKills()
	start := coll.Doc(0).Root
	oracle := oracleFor(coll, start, tags[0])
	dr, _ := c.descendants(start, tags[0], 1<<20)
	if dr.Partial || len(dr.Results) != len(oracle) {
		t.Fatalf("post-recovery query: partial=%v results=%d oracle=%d", dr.Partial, len(dr.Results), len(oracle))
	}
}

// TestClusterMalformedShardFrame checks the router's side of the frame
// contract: an eval answer that does not decode is a transient failure like
// any other — re-attempted, then the shard's share of the query is dropped
// and named in failedShards — and never half-merged into the answer.
func TestClusterMalformedShardFrame(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 11, 12, 40, 40)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	const retries = 1
	c := newCluster(t, coll, ix, 2, retries)
	start, clean, oracle := c.crossingStart()

	c.garble[1].Store(true)
	before := c.evals[1].Load()
	dr, resp := c.descendants(start, "", 1<<20)
	if !dr.Partial || fmt.Sprint(dr.FailedShards) != "[1]" || resp.Header.Get(shard.FailedShardsHeader) != "1" {
		t.Fatalf("garbled shard 1: partial=%v failedShards=%v header=%q, want partial, [1] and the header",
			dr.Partial, dr.FailedShards, resp.Header.Get(shard.FailedShardsHeader))
	}
	if got := c.evals[1].Load() - before; got != retries+1 {
		t.Errorf("shard 1 was asked %d times, want %d (a malformed answer is retryable, and a failed shard is not asked again)", got, retries+1)
	}
	if len(dr.Results) >= len(clean.Results) {
		t.Errorf("%d results with shard 1 garbled, %d without", len(dr.Results), len(clean.Results))
	}
	for _, r := range dr.Results {
		if want, ok := oracle[r.Node]; !ok || r.Dist < want {
			t.Fatalf("result (%d,%d) is not sound: oracle has %d, reachable=%v", r.Node, r.Dist, want, ok)
		}
	}

	c.garble[1].Store(false)
	if again, _ := c.descendants(start, "", 1<<20); again.Partial || len(again.Results) != len(clean.Results) {
		t.Fatalf("after the shard recovered: partial=%v results=%d, want %d", again.Partial, len(again.Results), len(clean.Results))
	}
}

// crossingStart finds the first start element whose wildcard gather asks
// both shards of a 2-shard cluster and has results, and returns it with the
// clean answer and the oracle's distance per reachable node.
func (c *cluster) crossingStart() (xmlgraph.NodeID, descendantsResp, map[xmlgraph.NodeID]int32) {
	c.t.Helper()
	var start xmlgraph.NodeID
	var clean descendantsResp
	for start = 0; ; start++ {
		if int(start) == c.coll.NumNodes() {
			c.t.Fatal("no start element whose gather crosses shards")
		}
		before0, before1 := c.evals[0].Load(), c.evals[1].Load()
		clean, _ = c.descendants(start, "", 1<<20)
		if c.evals[0].Load() > before0 && c.evals[1].Load() > before1 && len(clean.Results) > 0 {
			break
		}
	}
	if clean.Partial {
		c.t.Fatalf("start %d: clean cluster answered partial", start)
	}
	oracle := make(map[xmlgraph.NodeID]int32)
	for _, nd := range oracleFor(c.coll, start, "") {
		oracle[nd.Node] = nd.Dist
	}
	return start, clean, oracle
}

// TestClusterForgedShardEntries checks the router's side of the entries in
// an eval frame: a well-formed answer with the right fingerprint whose hop
// or result names a node outside the collection, or whose result carries a
// negative distance, drops its shard from the query as a fingerprint
// mismatch does — partial, the shard in failedShards and in the header, a
// log line — and the shard is not asked again, nor is the answer retried.
// Nothing of the forged answer reaches the response.
func TestClusterForgedShardEntries(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 11, 12, 40, 40)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, coll, ix, 2, 1) // one retry, which a forged answer must not spend
	start, clean, oracle := c.crossingStart()
	n := xmlgraph.NodeID(coll.NumNodes())
	for _, row := range []struct {
		name  string
		forge func(*shard.EvalResponse)
	}{
		{"hop node out of range", func(r *shard.EvalResponse) {
			r.Hops = append(r.Hops, flix.FrontierEntry{Node: n + 7, Dist: 1})
		}},
		{"result node out of range", func(r *shard.EvalResponse) {
			r.Results = append(r.Results, flix.FrontierEntry{Node: n + 9, Dist: 1})
		}},
		{"negative result distance", func(r *shard.EvalResponse) {
			r.Results = append(r.Results, flix.FrontierEntry{Node: start, Dist: -1})
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			defer func(parent testing.TB) { c.t = parent }(c.t)
			c.t = t
			c.forge[1].Store(&row.forge)
			before, logged := c.evals[1].Load(), len(c.logged.String())
			dr, resp := c.descendants(start, "", 1<<20)
			c.forge[1].Store(nil)
			if !dr.Partial || fmt.Sprint(dr.FailedShards) != "[1]" || resp.Header.Get(shard.FailedShardsHeader) != "1" {
				t.Fatalf("partial=%v failedShards=%v header=%q, want partial, [1] and the header",
					dr.Partial, dr.FailedShards, resp.Header.Get(shard.FailedShardsHeader))
			}
			if got := c.evals[1].Load() - before; got != 1 {
				t.Errorf("shard 1 was asked %d times, want 1 (a forged answer is not retried, and a dropped shard is not asked again)", got)
			}
			if line := c.logged.String()[logged:]; !strings.Contains(line, "shard 1 dropped from query: entry") {
				t.Errorf("no drop logged for shard 1; the router logged:\n%s", line)
			}
			for _, r := range dr.Results {
				if want, ok := oracle[r.Node]; !ok || r.Dist < want {
					t.Fatalf("result (%d,%d) is not sound: oracle has %d, reachable=%v", r.Node, r.Dist, want, ok)
				}
			}
			if again, _ := c.descendants(start, "", 1<<20); again.Partial || len(again.Results) != len(clean.Results) {
				t.Fatalf("after the forgery stopped: partial=%v results=%d, want %d", again.Partial, len(again.Results), len(clean.Results))
			}
		})
	}
}

// TestGatherPooledStateReset runs gathers that leave the rounds loop by
// every exit — the top-k early stop, the connection target's stop, the hop
// budget, a killed shard and a cancelled context — on one router, and after
// each a clean gather from the same start, which takes the per-gather state
// the exit pooled.  The clean gather must tally like a fresh router's, and
// its answer must be the BFS oracle's prefix, in a body byte-identical to a
// fresh router's.
func TestGatherPooledStateReset(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 11, 12, 40, 40)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, coll, ix, 2, -1) // -1: no retries, a killed shard fails at once
	ctx := context.Background()
	// A start and a k whose bounded gather stops early, having re-dispatched
	// fewer hops than the unbounded gather: a hop budget of exactly its
	// re-dispatches leaves it alone and stops the unbounded one.  The
	// endpoint's k asks the gather for one result more, since the start
	// is not reported.
	var start xmlgraph.NodeID
	k, budget := 0, 0
search:
	for s := xmlgraph.NodeID(0); int(s) < coll.NumNodes(); s++ {
		_, full := c.rt.Gather(ctx, s, "", 0)
		for _, kk := range []int{1, 2, 3, 5, 8} {
			if _, g := c.rt.Gather(ctx, s, "", kk+1); g.EarlyStops == 1 && g.Redispatched > 0 && g.Redispatched < full.Redispatched {
				start, k, budget = s, kk, g.Redispatched
				break search
			}
		}
	}
	if k == 0 {
		t.Fatal("no start whose bounded gather stops early with fewer re-dispatches than the unbounded one")
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rt, ts := c.newRouter(rctx, -1, budget)
	fresh, freshTS := c.newRouter(rctx, -1, budget)
	path := fmt.Sprintf("/v1/descendants?start=%d&k=%d&timeout=20s", start, k)
	get := func(base string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	want := get(freshTS.URL)
	wantN, wantTally := fresh.Gather(ctx, start, "", k+1)
	oracle := oracleFor(coll, start, "")
	oracle = oracle[:min(k, len(oracle))]
	clean := func(after string) {
		t.Helper()
		if n, g := rt.Gather(ctx, start, "", k+1); n != wantN || g != wantTally {
			t.Fatalf("after %s: clean gather has %d results, %+v; a fresh router's %d, %+v", after, n, g, wantN, wantTally)
		}
		body := get(ts.URL)
		if body != want {
			t.Fatalf("after %s: body\n%s\na fresh router's\n%s", after, body, want)
		}
		var dr descendantsResp
		if err := json.Unmarshal([]byte(body), &dr); err != nil {
			t.Fatal(err)
		}
		if dr.Partial || len(dr.Results) != len(oracle) {
			t.Fatalf("after %s: partial=%v, %d results, oracle prefix %d", after, dr.Partial, len(dr.Results), len(oracle))
		}
		for i, r := range dr.Results {
			if r.Node != oracle[i].Node || r.Dist != oracle[i].Dist {
				t.Fatalf("after %s: result %d = (%d,%d), oracle (%d,%d)", after, i, r.Node, r.Dist, oracle[i].Node, oracle[i].Dist)
			}
		}
	}
	clean("nothing")

	if _, g := rt.Gather(ctx, start, "", k+1); g.EarlyStops != 1 {
		t.Fatalf("the bounded gather did not stop early: %+v", g)
	}
	clean("a top-k early stop")

	stopped := false
	for _, nd := range oracleFor(coll, start, "") {
		before := scrapeMetrics(t, ts.URL).samples["flix_router_early_stops_total"]
		var cr struct{ Connected bool }
		c.getJSONFrom(ts.URL, fmt.Sprintf("/v1/connected?from=%d&to=%d&timeout=20s", start, nd.Node), &cr)
		if !cr.Connected {
			t.Fatalf("%d -> %d: not connected, the oracle reaches it", start, nd.Node)
		}
		if scrapeMetrics(t, ts.URL).samples["flix_router_early_stops_total"] > before {
			stopped = true
			break
		}
	}
	if !stopped {
		t.Fatal("no connection test from the start stopped at its target")
	}
	clean("a connection target's stop")

	if _, g := rt.Gather(ctx, start, "", 0); g.BudgetStops != 1 {
		t.Fatalf("the unbounded gather under a budget of %d did not stop on it: %+v", budget, g)
	}
	clean("the hop budget")

	owners, _ := rt.TopologyOwners()
	home := owners[ix.MetaOf(start)]
	c.kill[home].Store(true)
	_, g := rt.Gather(ctx, start, "", k+1)
	c.clearKills()
	if g.Partials != 1 || g.BudgetStops != 0 {
		t.Fatalf("the gather with the start's shard %d killed is not partial: %+v", home, g)
	}
	clean("a killed shard")

	cctx, ccancel := context.WithCancel(ctx)
	ccancel()
	if _, g := rt.Gather(cctx, start, "", k+1); g.Partials != 1 || g.Rounds != 0 {
		t.Fatalf("the cancelled gather: %+v, want partial after no round", g)
	}
	clean("a cancelled context")
}

// TestRouterQuorumReadiness checks the aggregate readiness gate: with a
// dead shard in the set, the router is ready under a reduced quorum and not
// ready under the default all-shards quorum.
func TestRouterQuorumReadiness(t *testing.T) {
	coll := testutil.Generate(testutil.Trees, 1, 8, 30, 0)
	ix := buildIndex(t, coll)
	live := httptest.NewServer(server.New(ix, server.Config{
		Shard:     &server.ShardConfig{ID: 0, Count: 2},
		CacheSize: -1,
	}).Handler())
	t.Cleanup(live.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	mk := func(quorum int) *shard.Router {
		rt, err := shard.NewRouter(coll, shard.RouterConfig{
			Shards:        []string{live.URL, deadURL},
			Quorum:        quorum,
			ProbeInterval: 20 * time.Millisecond,
			Retries:       -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		rt.Start(ctx)
		return rt
	}

	lenient := mk(1)
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := lenient.WaitReady(wctx); err != nil {
		t.Fatalf("quorum=1 router never became ready with one live shard: %v", err)
	}

	strict := mk(0) // 0 = all shards
	time.Sleep(200 * time.Millisecond)
	if strict.Ready() {
		t.Fatal("quorum=all router reports ready with a dead shard")
	}
	ts := httptest.NewServer(strict.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz below quorum: status %d, want 503", resp.StatusCode)
	}
	var hz struct {
		Ready       bool `json:"ready"`
		ReadyShards int  `json:"readyShards"`
		ShardStates []struct {
			ID    int  `json:"id"`
			Ready bool `json:"ready"`
		} `json:"shardStates"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Ready || hz.ReadyShards != 1 || len(hz.ShardStates) != 2 {
		t.Fatalf("healthz = %+v, want ready=false readyShards=1 with 2 shard states", hz)
	}

	query := ts.URL + "/v1/descendants?start=0&tag=a"
	qresp, err := http.Get(query)
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query below quorum: status %d, want 503", qresp.StatusCode)
	}
}

// TestRequestIDPropagation checks the end-to-end ID chain: a valid caller
// ID is reused by the router and forwarded to the shards (which also reuse
// it), while an invalid one is replaced.
func TestRequestIDPropagation(t *testing.T) {
	coll := testutil.Generate(testutil.Trees, 4, 8, 30, 0)
	ix := buildIndex(t, coll)

	var seen atomic.Pointer[string]
	s := server.New(ix, server.Config{
		Shard:     &server.ShardConfig{ID: 0, Count: 1},
		CacheSize: -1,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	proxy := newRecordProxy(t, ts.URL)
	proxy.onRecord = func(reqID, _ []byte) (int, []byte, bool) {
		id := string(reqID)
		seen.Store(&id)
		return 0, nil, false
	}

	rt, err := shard.NewRouter(coll, shard.RouterConfig{
		Shards:        []string{proxy.URL},
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rt.Start(ctx)
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := rt.WaitReady(wctx); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	do := func(id string) (string, string) {
		req, err := http.NewRequest(http.MethodGet, rts.URL+"/v1/descendants?start=0&tag="+coll.Tags()[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set(shard.RequestIDHeader, id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		forwarded := ""
		if p := seen.Load(); p != nil {
			forwarded = *p
		}
		return resp.Header.Get(shard.RequestIDHeader), forwarded
	}

	echoed, forwarded := do("trace-me-42")
	if echoed != "trace-me-42" {
		t.Fatalf("router replaced a valid request ID: got %q", echoed)
	}
	if forwarded != "trace-me-42" {
		t.Fatalf("shard RPC carried %q, want the caller's ID", forwarded)
	}

	echoed, _ = do("bad id with junk!")
	if echoed == "" || strings.ContainsAny(echoed, " !") {
		t.Fatalf("invalid incoming ID not replaced: %q", echoed)
	}

	// The shard server reuses valid IDs directly too.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(shard.RequestIDHeader, "direct-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(shard.RequestIDHeader); got != "direct-7" {
		t.Fatalf("shard server replaced a valid request ID: got %q", got)
	}
}
