package main

// The topk experiment gates the ranked top-k rewrite: the incremental
// indexed top-k heap, pooled stream scratch, decay table and banded probe
// (internal/query/topk.go) measured against the frozen pre-optimization
// evaluator (ReferenceEvaluateTopK) in the same binary on the same
// collection, plus the /v1/batch amortization curve over real HTTP.
// Acceptance: the optimized path must beat the reference by the configured
// latency and allocation factors, after first proving it returns the exact
// reference ranking prefix; and the memory one ranked query pins per paused
// probe must stay under a fixed budget on a configuration with few meta
// documents and on one with thousands — a ranked query holds thousands of
// probes open at once, so per-probe state that scales with the collection
// multiplies into hundreds of megabytes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/dblp"
	"repro/internal/flix"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/shard"
)

// topkBatchPoint is one /v1/batch throughput measurement.
type topkBatchPoint struct {
	Size          int     `json:"size"`
	NsPerQuery    int64   `json:"nsPerQuery"`
	QueriesPerSec float64 `json:"queriesPerSec"`
}

// topkResult is the machine-readable record written to BENCH_topk.json.
type topkResult struct {
	Experiment string        `json:"experiment"`
	Config     string        `json:"config"`
	Docs       int           `json:"docs"`
	Elements   int           `json:"elements"`
	Cases      []hotpathCase `json:"cases"`
	// SpeedupTopK / AllocRatioTopK are reference-topk divided by topk —
	// the tentpole acceptance metrics.
	SpeedupTopK    float64          `json:"speedupTopK"`
	AllocRatioTopK float64          `json:"allocRatioTopK"`
	Batch          []topkBatchPoint `json:"batch"`
	// Probes is the many-open-probes memory measurement, one row per index
	// configuration.
	Probes []topkProbeCost `json:"probes"`
}

// maxProbeBytes is the most a cold ranked query may allocate per concurrently
// open probe.  Probe state that follows the probe's own work costs 2–3 KB
// here, stream buffers included; a table with one 24-byte entry per meta
// document costs 14 KB on the 500-document CI corpus and 150 KB at paper
// scale.
const maxProbeBytes = 4096

// topkProbeCost is what the paused probes of one ranked query cost on one
// index configuration.  The cold figures come from the first query after the
// scratch pools were dropped, with the collector off: every byte a probe's
// state needs is allocated there, and the peak live heap is the same number.
type topkProbeCost struct {
	Config        string `json:"config"`
	Metas         int    `json:"metas"`
	Scans         int    `json:"scans"`
	PeakOpen      int    `json:"peakOpen"`
	ColdBytes     int64  `json:"coldBytes"`
	ColdAllocs    int64  `json:"coldAllocs"`
	BytesPerProbe int64  `json:"bytesPerProbe"`
	WarmNsPerOp   int64  `json:"warmNsPerOp"`
	WarmBytes     int64  `json:"warmBytesPerOp"`
	WarmAllocs    int64  `json:"warmAllocsPerOp"`
}

// probeCost measures q on ix: cold pools first, then the warm steady state.
func probeCost(ix *flix.Index, q *query.Query, k int) topkProbeCost {
	ev := &query.Evaluator{Index: ix}
	// Two collections empty every sync.Pool (live, then victim cache).
	runtime.GC()
	runtime.GC()
	old := debug.SetGCPercent(-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ev.EvaluateTopK(q, k)
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(old)
	c := topkProbeCost{
		Config:     ix.Describe(),
		Metas:      len(ix.MetaOutLinkCounts()),
		Scans:      ev.Stats.Scans,
		PeakOpen:   ev.Stats.PeakOpen,
		ColdBytes:  int64(after.TotalAlloc - before.TotalAlloc),
		ColdAllocs: int64(after.Mallocs - before.Mallocs),
	}
	if c.PeakOpen > 0 {
		c.BytesPerProbe = c.ColdBytes / int64(c.PeakOpen)
	}
	for i := 0; i < 3; i++ {
		ev.EvaluateTopK(q, k)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.EvaluateTopK(q, k)
		}
	})
	c.WarmNsPerOp, c.WarmBytes, c.WarmAllocs = r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp()
	fmt.Printf("%-34s %5d metas %5d open probes  cold %9d B (%6d B/probe, %6d allocs)  warm %10d ns/op %9d B/op %6d allocs/op\n",
		c.Config, c.Metas, c.PeakOpen, c.ColdBytes, c.BytesPerProbe, c.ColdAllocs, c.WarmNsPerOp, c.WarmBytes, c.WarmAllocs)
	return c
}

// topkExperiment measures EvaluateTopK against the frozen reference and the
// /v1/batch endpoint's per-query amortization, and enforces the acceptance
// bars.  A violation exits nonzero so CI can gate on it.
func topkExperiment(docs int, seed int64, out string, minSpeedup, minAllocRatio float64) {
	fmt.Println("=== Top-k: incremental heap + banded streams vs frozen reference ===")
	p := dblp.DefaultParams()
	p.Docs = docs
	p.Seed = seed
	e := bench.NewExperiment(p)
	ix, err := flix.Build(e.Coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 5000})
	if err != nil {
		log.Fatal(err)
	}
	q, err := query.Parse("//inproceedings//article")
	if err != nil {
		log.Fatal(err)
	}
	ev := &query.Evaluator{Index: ix}
	const k = 10

	// Correctness before speed: the optimized path must return exactly the
	// first k of the reference evaluator's full deterministic ranking.
	got := ev.EvaluateTopK(q, k)
	full := ev.ReferenceEvaluate(q)
	want := full
	if len(want) > k {
		want = want[:k]
	}
	if len(got) != len(want) {
		log.Fatalf("correctness: EvaluateTopK returned %d results, reference prefix has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("correctness: result %d = %+v, reference %+v", i, got[i], want[i])
		}
	}

	measure := func(name string, op func()) hotpathCase {
		for i := 0; i < 3; i++ {
			op() // warm the scratch pool and lazily built index state
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
		c := hotpathCase{
			Name:        name,
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		fmt.Printf("%-28s %12d ns/op %8d B/op %6d allocs/op\n",
			c.Name, c.NsPerOp, c.BytesPerOp, c.AllocsPerOp)
		return c
	}

	cases := []hotpathCase{
		measure("topk", func() { ev.EvaluateTopK(q, k) }),
		measure("reference-topk", func() { ev.ReferenceEvaluateTopK(q, k) }),
	}
	byName := map[string]hotpathCase{}
	for _, c := range cases {
		byName[c.Name] = c
	}
	r := topkResult{
		Experiment: "topk",
		Config:     ix.Config().Kind.String(),
		Docs:       e.Coll.NumDocs(),
		Elements:   e.Coll.NumNodes(),
		Cases:      cases,
		SpeedupTopK: float64(byName["reference-topk"].NsPerOp) /
			float64(byName["topk"].NsPerOp),
	}
	if a := byName["topk"].AllocsPerOp; a > 0 {
		r.AllocRatioTopK = float64(byName["reference-topk"].AllocsPerOp) / float64(a)
	} else {
		r.AllocRatioTopK = float64(byName["reference-topk"].AllocsPerOp)
	}
	fmt.Printf("speedup vs reference: %.2fx latency, %.2fx allocations\n",
		r.SpeedupTopK, r.AllocRatioTopK)

	// The same query with every stream open at once, on few large meta
	// documents and on one meta document per publication.
	naive, err := flix.Build(e.Coll, flix.Config{Kind: flix.Naive})
	if err != nil {
		log.Fatal(err)
	}
	r.Probes = []topkProbeCost{probeCost(ix, q, k), probeCost(naive, q, k)}

	r.Batch = batchThroughput(ix, e.Coll.NumNodes(), seed)

	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)

	if minSpeedup > 0 && r.SpeedupTopK < minSpeedup {
		log.Fatalf("acceptance: topk speedup %.2fx below the %.2fx bar", r.SpeedupTopK, minSpeedup)
	}
	if minAllocRatio > 0 && r.AllocRatioTopK < minAllocRatio {
		log.Fatalf("acceptance: topk allocation ratio %.2fx below the %.2fx bar",
			r.AllocRatioTopK, minAllocRatio)
	}
	for _, c := range r.Probes {
		if c.BytesPerProbe > maxProbeBytes {
			log.Fatalf("acceptance: %s: a cold ranked query allocates %d B per open probe, budget %d",
				c.Config, c.BytesPerProbe, maxProbeBytes)
		}
	}
	fmt.Println()
}

// batchThroughput measures per-query latency through POST /v1/batch at
// growing batch sizes over real HTTP: the admission, parsing and transport
// overhead amortizes across the batch, so ns/query should fall as the size
// grows.
func batchThroughput(ix *flix.Index, numNodes int, seed int64) []topkBatchPoint {
	s := server.New(ix, server.Config{MaxBatch: 1024, MaxTimeout: 5 * time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A fixed pool of start nodes: repeats hit the query cache, fresh
	// starts miss — the mixed workload the cache-aware ordering targets.
	rng := rand.New(rand.NewSource(seed))
	starts := make([]int, 64)
	for i := range starts {
		starts[i] = rng.Intn(numNodes)
	}
	post := func(body []byte) {
		resp, err := http.Post(ts.URL+"/v1/batch?timeout=5m", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		var br shard.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || br.Partial {
			log.Fatalf("batch benchmark: status %d partial %v", resp.StatusCode, br.Partial)
		}
	}

	var points []topkBatchPoint
	for _, size := range []int{1, 16, 256} {
		req := shard.BatchRequest{K: 10}
		for i := 0; i < size; i++ {
			req.Queries = append(req.Queries, shard.BatchQuery{
				Start: fmt.Sprint(starts[i%len(starts)]),
				Tag:   "article",
			})
		}
		body, err := json.Marshal(req)
		if err != nil {
			log.Fatal(err)
		}
		rounds := 512 / size
		if rounds < 4 {
			rounds = 4
		}
		post(body) // warm
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			post(body)
		}
		elapsed := time.Since(t0)
		queries := int64(rounds * size)
		pt := topkBatchPoint{
			Size:          size,
			NsPerQuery:    elapsed.Nanoseconds() / queries,
			QueriesPerSec: float64(queries) / elapsed.Seconds(),
		}
		fmt.Printf("batch size %4d %12d ns/query %12.0f queries/sec\n",
			pt.Size, pt.NsPerQuery, pt.QueriesPerSec)
		points = append(points, pt)
	}
	return points
}
