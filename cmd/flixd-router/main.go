// Command flixd-router fronts a cluster of flixd shards with one
// scatter-gather query endpoint.  It loads the same document directory the
// shards serve (for node resolution and result rendering — it builds no
// index), probes the shards' health, bootstraps the cluster topology from a
// shard's /v1/shard/links, and answers the single-node query API by fanning
// frontier batches out to the owning shards and merging the streams back.
//
// Usage:
//
//	flixd-router -dir ./docs -shards http://h1:8080,http://h2:8080,http://h3:8080
//	             [-addr :8090] [-vnodes 64] [-quorum 0] [-hop-budget 100000]
//	             [-inflight 64] [-timeout 2s] [-shard-timeout 10s]
//	             [-retries 2] [-probe-interval 1s] [-ontology tags.txt]
//	             [-debug-addr :6061]
//
// Endpoints (single-node wire shape plus the partial-results contract —
// "partial" / "failedShards" in the body, X-Flix-Shards-Failed header):
//
//	GET /v1/descendants?start=<doc|node>&tag=<tag>[&k=][&maxdist=][&self=1][&trace=1]
//	GET /v1/connected?from=<doc|node>&to=<doc|node>[&maxdist=][&trace=1]
//	GET /v1/query?q=<expr>[&k=][&trace=1]
//	POST /v1/batch             {"queries": [...]} (many queries, one deadline)
//	GET /healthz · /statsz · /metrics
//
// ?trace=1 runs the query under distributed tracing: every shard RPC
// carries the trace flag, shards answer with TraceFragments, and the
// response carries the merged cluster trace (per-round scatter spans,
// per-shard strategy breakdowns, hop re-dispatch decisions).
//
// /healthz answers 503 until the topology is loaded and -quorum shards
// (default: all) probe ready.  A shard that fails mid-query is dropped from
// that query after retries: the response is the sound subset the remaining
// shards produced, flagged partial.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/front/daemon"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flixd-router: ")
	var (
		addr      = flag.String("addr", ":8090", "listen address")
		dir       = flag.String("dir", "", "directory of *.xml documents (required; same corpus as the shards)")
		shards    = flag.String("shards", "", "comma-separated shard base URLs in ring order (required)")
		vnodes    = flag.Int("vnodes", 0, "ring virtual nodes per shard (0 = default; must match the shards)")
		quorum    = flag.Int("quorum", 0, "ready shards required before serving (0 = all)")
		hopBudget = flag.Int("hop-budget", 0, "cross-shard hop entries dispatched per query before returning partial (0 = default)")
		inflight  = flag.Int("inflight", 64, "admission limit: concurrent queries before 429 shedding")
		timeout   = flag.Duration("timeout", 2*time.Second, "default per-request deadline")
		maxTO     = flag.Duration("max-timeout", 30*time.Second, "upper clamp on client-requested deadlines")
		limit     = flag.Int("limit", 100, "default result limit per request")
		maxLimit  = flag.Int("max-limit", 10000, "upper clamp on client-requested result limits")
		maxBatch  = flag.Int("batch-max", 256, "queries allowed in one POST /v1/batch request")
		shardTO   = flag.Duration("shard-timeout", 10*time.Second, "per-attempt deadline for shard RPCs")
		retries   = flag.Int("retries", 2, "shard RPC re-attempts after a transient failure")
		probe     = flag.Duration("probe-interval", time.Second, "shard health-probe cadence")
		ontoFile  = flag.String("ontology", "", "ontology file with 'tagA tagB score' lines for ~ expansion")
		drain     = flag.Duration("drain", 15*time.Second, "shutdown grace period for in-flight queries")
		quiet     = flag.Bool("quiet", false, "disable per-request access logging")
		dbgAddr   = flag.String("debug-addr", "", "separate listen address for /debug/pprof (empty = disabled)")
	)
	flag.Parse()
	if *dir == "" || *shards == "" {
		flag.Usage()
		os.Exit(2)
	}
	urls := strings.Split(*shards, ",")
	for i, u := range urls {
		urls[i] = strings.TrimRight(strings.TrimSpace(u), "/")
		if urls[i] == "" {
			log.Fatalf("-shards entry %d is empty", i)
		}
	}

	coll, onto, err := daemon.Corpus(*dir, *ontoFile)
	if err != nil {
		log.Fatal(err)
	}

	cfg := shard.RouterConfig{
		Shards:         urls,
		VNodes:         *vnodes,
		Quorum:         *quorum,
		HopBudget:      *hopBudget,
		MaxInFlight:    *inflight,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTO,
		DefaultLimit:   *limit,
		MaxLimit:       *maxLimit,
		MaxBatch:       *maxBatch,
		ShardTimeout:   *shardTO,
		Retries:        *retries,
		ProbeInterval:  *probe,
	}
	if !*quiet {
		cfg.Logger = log.New(os.Stderr, "flixd-router: ", 0)
	}
	rt, err := shard.NewRouter(coll, cfg)
	if err != nil {
		log.Fatal(err)
	}
	rt.SetOntology(onto)

	probeCtx, stopProbe := context.WithCancel(context.Background())
	defer stopProbe()
	rt.Start(probeCtx)

	log.Printf("routing %d documents / %d elements across %d shards on %s",
		coll.NumDocs(), coll.NumNodes(), len(urls), *addr)
	if err := daemon.Run(*addr, *dbgAddr, rt.Handler(), *drain); err != nil {
		log.Fatal(err)
	}
}
