package shard_test

// Distributed-tracing tests over the real-HTTP cluster harness: ?trace=1
// must return one merged cluster trace whose per-shard fragments, per-round
// scatter spans and hop accounting reconcile exactly with the router's
// /metrics counters — including when many traced queries assemble their
// fragments concurrently (run under -race).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// tracedResp is the ?trace=1 wire shape of /v1/descendants.
type tracedResp struct {
	descendantsResp
	Rounds int               `json:"rounds"`
	Trace  *obs.ClusterTrace `json:"trace"`
}

// routerCounters snapshots the /metrics counters a trace must reconcile
// with.
type routerCounters struct {
	gathers, rounds, fanouts    float64
	hops, deduped, redispatched float64
	traced                      float64
	shardRPCs                   map[int]float64
}

func counters(t *testing.T, c *cluster, nShards int) routerCounters {
	t.Helper()
	e := scrapeMetrics(t, c.router.URL)
	rc := routerCounters{
		gathers:      e.samples["flix_router_gathers_total"],
		rounds:       e.samples["flix_router_rounds_total"],
		fanouts:      e.samples["flix_router_fanouts_total"],
		hops:         e.samples["flix_router_hops_total"],
		deduped:      e.samples["flix_router_hops_deduped_total"],
		redispatched: e.samples["flix_router_hops_redispatched_total"],
		traced:       e.samples["flix_router_traced_queries_total"],
		shardRPCs:    make(map[int]float64, nShards),
	}
	for sh := 0; sh < nShards; sh++ {
		rc.shardRPCs[sh] = e.samples[fmt.Sprintf("flix_router_shard_rpcs_total{shard=%q}", strconv.Itoa(sh))]
	}
	return rc
}

// checkTraceShape validates one cluster trace's internal consistency: span
// tree structure, fragment attachment, and the cross-sections (span counts
// vs scalar counters vs per-shard rollups) agreeing with each other.
func checkTraceShape(t *testing.T, ct *obs.ClusterTrace, results int) {
	t.Helper()
	if ct == nil {
		t.Fatal("traced query returned no trace")
	}
	if ct.RequestID == "" {
		t.Error("trace has no request ID")
	}
	if ct.Elapsed <= 0 {
		t.Error("trace has no elapsed time")
	}
	if int(ct.Results) != results {
		t.Errorf("trace results %d != response results %d", ct.Results, results)
	}
	if ct.Gathers < 1 || ct.Rounds < ct.Gathers || ct.Fanouts < ct.Rounds {
		t.Errorf("work shape inverted: gathers=%d rounds=%d fanouts=%d", ct.Gathers, ct.Rounds, ct.Fanouts)
	}
	// Without a hop budget or maxdist, every hop the shards returned was
	// either re-dispatched or fell to the best-distance dedup.
	if ct.HopsSeen != ct.HopsRedispatched+ct.HopsDeduped {
		t.Errorf("hop accounting leaks: seen=%d redispatched=%d deduped=%d",
			ct.HopsSeen, ct.HopsRedispatched, ct.HopsDeduped)
	}
	if ct.BudgetExhausted || ct.Partial {
		t.Errorf("clean cluster flagged budgetExhausted=%v partial=%v", ct.BudgetExhausted, ct.Partial)
	}

	// Walk the span tree: root -> gathers -> rounds -> dispatches, every
	// dispatch carrying the shard's fragment.
	if ct.Root == nil {
		t.Fatal("trace has no span tree")
	}
	gathers, rounds, dispatches := 0, 0, 0
	var fragHops, fragPops int64
	for _, g := range ct.Root.Children {
		if g.Name != "gather" {
			t.Fatalf("root child %q, want gather", g.Name)
		}
		gathers++
		for _, r := range g.Children {
			if r.Name != "round" {
				t.Fatalf("gather child %q, want round", r.Name)
			}
			rounds++
			for _, d := range r.Children {
				if d.Name != "dispatch" {
					t.Fatalf("round child %q, want dispatch", d.Name)
				}
				dispatches++
				if d.Fragment == nil {
					t.Fatal("dispatch span on a clean cluster has no fragment")
				}
				if d.Duration <= 0 {
					t.Error("dispatch span has no duration")
				}
				fragHops += d.Attrs["hops"]
				fragPops += d.Fragment.Pops
			}
		}
	}
	if gathers != ct.Gathers || rounds != ct.Rounds || dispatches != ct.Fanouts {
		t.Errorf("span tree (%d gathers, %d rounds, %d dispatches) != counters (%d, %d, %d)",
			gathers, rounds, dispatches, ct.Gathers, ct.Rounds, ct.Fanouts)
	}
	if fragHops != ct.HopsSeen {
		t.Errorf("dispatch hop attrs sum to %d, trace saw %d", fragHops, ct.HopsSeen)
	}

	// The per-shard rollups must agree with the same fragments.
	var sumRPCs int
	var sumHops, sumPops int64
	for _, s := range ct.Shards {
		if s.RPCs <= 0 {
			t.Errorf("shard %d rollup with %d RPCs", s.Shard, s.RPCs)
		}
		if s.Generation == 0 {
			t.Errorf("shard %d rollup lost the generation", s.Shard)
		}
		sumRPCs += s.RPCs
		sumHops += s.Hops
		sumPops += s.Pops
	}
	if sumRPCs != ct.Fanouts {
		t.Errorf("shard rollup RPCs sum %d != fanouts %d", sumRPCs, ct.Fanouts)
	}
	if sumHops != ct.HopsSeen {
		t.Errorf("shard rollup hops sum %d != hops seen %d", sumHops, ct.HopsSeen)
	}
	if sumPops != fragPops {
		t.Errorf("shard rollup pops %d != fragment pops %d", sumPops, fragPops)
	}
	if len(ct.Strategies) == 0 {
		t.Error("trace has no strategy breakdown")
	}
}

// TestClusterTraceReconcilesWithMetrics runs traced descendants queries at
// 1, 2 and 4 shards and checks the acceptance contract: the merged trace's
// gather/round/fanout/hop counts equal the /metrics counter deltas exactly,
// and its per-shard RPC counts equal the per-shard rpcs series deltas.
func TestClusterTraceReconcilesWithMetrics(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 9, 12, 40, 40)
	ix := buildIndex(t, coll)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			c := newCluster(t, coll, ix, n, 0)
			tags := coll.Tags()
			for q := 0; q < 4; q++ {
				start := xmlgraph.NodeID((q * 37) % coll.NumNodes())
				tag := tags[q%len(tags)]
				before := counters(t, c, n)

				var tr tracedResp
				c.getJSON(fmt.Sprintf("/v1/descendants?start=%d&tag=%s&k=%d&trace=1&timeout=20s", start, tag, 1<<20), &tr)
				checkTraceShape(t, tr.Trace, len(tr.Results))

				// The traced answer is still the exact answer.
				oracle := oracleFor(coll, start, tag)
				if len(tr.Results) != len(oracle) {
					t.Fatalf("%d//%s traced: %d results, oracle %d", start, tag, len(tr.Results), len(oracle))
				}
				if tr.Trace.Rounds != tr.Rounds {
					t.Errorf("trace rounds %d != response rounds %d", tr.Trace.Rounds, tr.Rounds)
				}

				after := counters(t, c, n)
				ct := tr.Trace
				for _, chk := range []struct {
					name  string
					delta float64
					want  int64
				}{
					{"gathers", after.gathers - before.gathers, int64(ct.Gathers)},
					{"rounds", after.rounds - before.rounds, int64(ct.Rounds)},
					{"fanouts", after.fanouts - before.fanouts, int64(ct.Fanouts)},
					{"hops", after.hops - before.hops, ct.HopsSeen},
					{"hopsDeduped", after.deduped - before.deduped, ct.HopsDeduped},
					{"hopsRedispatched", after.redispatched - before.redispatched, ct.HopsRedispatched},
					{"tracedQueries", after.traced - before.traced, 1},
				} {
					if int64(chk.delta) != chk.want {
						t.Errorf("%d//%s: /metrics %s delta %v != trace %d", start, tag, chk.name, chk.delta, chk.want)
					}
				}
				shardDelta := make(map[int]int)
				for _, s := range ct.Shards {
					shardDelta[s.Shard] = s.RPCs
				}
				for sh := 0; sh < n; sh++ {
					if d := int(after.shardRPCs[sh] - before.shardRPCs[sh]); d != shardDelta[sh] {
						t.Errorf("%d//%s: shard %d rpcs delta %d != trace %d", start, tag, sh, d, shardDelta[sh])
					}
				}
			}

			// An untraced query on the same cluster must carry no trace.
			var plain tracedResp
			c.getJSON(fmt.Sprintf("/v1/descendants?start=0&tag=%s&k=10&timeout=20s", tags[0]), &plain)
			if plain.Trace != nil {
				t.Error("untraced query returned a trace")
			}
		})
	}
}

// TestTracedDispatchCarriesLimit checks what a bounded k leaves in a trace:
// every dispatch span names the limit its batch travelled with (k, plus one
// while the start element may still have to be dropped), counts no more
// results than that, and the per-shard sums of those counts equal the
// flix_router_shard_results_total deltas exactly — span and counter both
// count what the shard returned.  The eval frames moved bytes both ways.
func TestTracedDispatchCarriesLimit(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 9, 12, 40, 40)
	ix := buildIndex(t, coll)
	const nShards = 2
	c := newCluster(t, coll, ix, nShards, 0)
	series := func(e *promText, name string, sh int, dir string) float64 {
		if dir != "" {
			dir = fmt.Sprintf(",dir=%q", dir)
		}
		v, ok := e.samples[fmt.Sprintf("%s{shard=%q%s}", name, strconv.Itoa(sh), dir)]
		if !ok {
			t.Errorf("%s has no series for shard %d %s", name, sh, dir)
		}
		return v
	}
	for q, tc := range []struct {
		self  string
		k     int
		wantK int64
	}{{"", 5, 6}, {"&self=1", 5, 5}, {"", 1 << 20, 1<<20 + 1}} {
		start := xmlgraph.NodeID((q * 37) % coll.NumNodes())
		before := scrapeMetrics(t, c.router.URL)
		var tr tracedResp
		c.getJSON(fmt.Sprintf("/v1/descendants?start=%d&k=%d%s&trace=1&timeout=20s", start, tc.k, tc.self), &tr)
		checkTraceShape(t, tr.Trace, len(tr.Results))
		after := scrapeMetrics(t, c.router.URL)

		returned := make([]int64, nShards)
		for _, g := range tr.Trace.Root.Children {
			for _, r := range g.Children {
				for _, d := range r.Children {
					if d.Attrs["k"] != tc.wantK {
						t.Errorf("k=%d%s: dispatch span carries k=%d, want %d", tc.k, tc.self, d.Attrs["k"], tc.wantK)
					}
					if d.Attrs["results"] > tc.wantK {
						t.Errorf("k=%d%s: shard %d returned %d results past the limit %d", tc.k, tc.self, d.Attrs["shard"], d.Attrs["results"], tc.wantK)
					}
					returned[d.Attrs["shard"]] += d.Attrs["results"]
				}
			}
		}
		for sh := 0; sh < nShards; sh++ {
			const results, wire = "flix_router_shard_results_total", "flix_router_shard_wire_bytes_total"
			if d := int64(series(after, results, sh, "") - series(before, results, sh, "")); d != returned[sh] {
				t.Errorf("k=%d%s: shard %d results_total delta %d != dispatch spans %d", tc.k, tc.self, sh, d, returned[sh])
			}
			rpcs := series(after, "flix_router_shard_rpcs_total", sh, "") - series(before, "flix_router_shard_rpcs_total", sh, "")
			for _, dir := range []string{"tx", "rx"} {
				if d := series(after, wire, sh, dir) - series(before, wire, sh, dir); (d > 0) != (rpcs > 0) {
					t.Errorf("k=%d%s: shard %d %s bytes delta %v over %v RPCs", tc.k, tc.self, sh, dir, d, rpcs)
				}
			}
		}
	}
}

// TestClusterQueryTrace checks /v1/query tracing: one gather per //-step
// scan of the ranked evaluator, with the evaluator's work shape on the root
// span.
func TestClusterQueryTrace(t *testing.T) {
	coll := testutil.Generate(testutil.DAGs, 4, 12, 40, 30)
	ix := buildIndex(t, coll)
	c := newCluster(t, coll, ix, 3, 0)
	tags := coll.Tags()
	expr := "%2F%2F" + tags[0] + "%2F%2F" + tags[1%len(tags)]

	var qr struct {
		Results []json.RawMessage `json:"results"`
		Trace   *obs.ClusterTrace `json:"trace"`
	}
	c.getJSON("/v1/query?q="+expr+"&k=25&trace=1&timeout=20s", &qr)
	checkTraceShape(t, qr.Trace, len(qr.Results))
	if qr.Trace.Root.Name != "query" {
		t.Errorf("root span %q, want query", qr.Trace.Root.Name)
	}
	scans := qr.Trace.Root.Attrs["scans"]
	if scans <= 0 {
		t.Fatalf("root span scans attr = %d, want > 0", scans)
	}
	if int64(qr.Trace.Gathers) != scans {
		t.Errorf("gathers %d != evaluator scans %d — each //-step scan is one gather", qr.Trace.Gathers, scans)
	}
	if steps := qr.Trace.Root.Attrs["steps"]; steps <= 0 {
		t.Errorf("root span steps attr = %d, want > 0", steps)
	}
}

// TestClusterTraceConcurrent fires traced queries from many goroutines at a
// 4-shard cluster (run under -race: the dispatch goroutines and the
// builder's receive-side assembly race if anything shares state).  Every
// trace must be internally consistent, and because tracing mirrors the
// router's atomics at the same program points, the summed per-trace counts
// must equal the /metrics deltas exactly even under interleaving.
func TestClusterTraceConcurrent(t *testing.T) {
	coll := testutil.Generate(testutil.Linked, 13, 12, 40, 40)
	ix := buildIndex(t, coll)
	const nShards = 4
	c := newCluster(t, coll, ix, nShards, 0)
	tags := coll.Tags()
	before := counters(t, c, nShards)

	const workers, perWorker = 8, 4
	traces := make(chan *obs.ClusterTrace, workers*perWorker)
	errs := make(chan error, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < perWorker; q++ {
				start := (w*perWorker + q) * 29 % coll.NumNodes()
				tag := tags[(w+q)%len(tags)]
				url := c.router.URL + fmt.Sprintf("/v1/descendants?start=%d&tag=%s&k=%d&trace=1&timeout=20s", start, tag, 1<<20)
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				var tr tracedResp
				err = json.NewDecoder(resp.Body).Decode(&tr)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("decode %s: %w", url, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", url, resp.StatusCode)
					return
				}
				traces <- tr.Trace
			}
		}(w)
	}
	wg.Wait()
	close(traces)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var n int
	var gathers, rounds, fanouts int
	var hops, deduped, redispatched int64
	shardRPCs := make(map[int]int)
	for ct := range traces {
		checkTraceShape(t, ct, int(ct.Results))
		n++
		gathers += ct.Gathers
		rounds += ct.Rounds
		fanouts += ct.Fanouts
		hops += ct.HopsSeen
		deduped += ct.HopsDeduped
		redispatched += ct.HopsRedispatched
		for _, s := range ct.Shards {
			shardRPCs[s.Shard] += s.RPCs
		}
	}
	if n != workers*perWorker {
		t.Fatalf("collected %d traces, want %d", n, workers*perWorker)
	}

	after := counters(t, c, nShards)
	for _, chk := range []struct {
		name  string
		delta float64
		want  int64
	}{
		{"gathers", after.gathers - before.gathers, int64(gathers)},
		{"rounds", after.rounds - before.rounds, int64(rounds)},
		{"fanouts", after.fanouts - before.fanouts, int64(fanouts)},
		{"hops", after.hops - before.hops, hops},
		{"hopsDeduped", after.deduped - before.deduped, deduped},
		{"hopsRedispatched", after.redispatched - before.redispatched, redispatched},
		{"tracedQueries", after.traced - before.traced, int64(n)},
	} {
		if int64(chk.delta) != chk.want {
			t.Errorf("/metrics %s delta %v != summed trace %d", chk.name, chk.delta, chk.want)
		}
	}
	for sh := 0; sh < nShards; sh++ {
		if d := int(after.shardRPCs[sh] - before.shardRPCs[sh]); d != shardRPCs[sh] {
			t.Errorf("shard %d rpcs delta %d != summed trace %d", sh, d, shardRPCs[sh])
		}
	}
}
