// Command flixd-router fronts a cluster of flixd shards with one
// scatter-gather query endpoint.  It loads the same document directory the
// shards serve (for node resolution and result rendering — it builds no
// index), probes the shards' health, derives the cluster topology from the
// decomposition settings a shard announces on /healthz (partitioning its own
// copy of the collection, checked against the shard's fingerprint), and
// answers the single-node query API by fanning frontier batches out to the
// owning shards and merging the streams back.
//
// Usage:
//
//	flixd-router -dir ./docs -shards http://h1:8080,http://h2:8080,http://h3:8080
//	             [-addr :8090] [-quorum 0] [-hop-budget 100000]
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
	"fmt"
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
	df := daemon.DeclareFlags(flag.CommandLine, ":8090")
	var (
		shards    = flag.String("shards", "", "comma-separated shard base URLs in ring order (required)")
		quorum    = flag.Int("quorum", 0, "ready shards required before serving (0 = all)")
		hopBudget = flag.Int("hop-budget", 0, "cross-shard hop entries dispatched per query before returning partial (0 = default)")
		shardTO   = flag.Duration("shard-timeout", 10*time.Second, "per-attempt deadline for shard RPCs")
		retries   = flag.Int("retries", 2, "shard RPC re-attempts after a transient failure (0 disables)")
		probe     = flag.Duration("probe-interval", time.Second, "shard health-probe cadence")
	)
	flag.Parse()
	if df.Dir == "" || *shards == "" {
		flag.Usage()
		os.Exit(2)
	}
	urls, err := shardURLs(*shards)
	if err != nil {
		log.Fatal(err)
	}

	coll, onto, err := daemon.Corpus(df.Dir, df.Ontology)
	if err != nil {
		log.Fatal(err)
	}

	cfg := shard.RouterConfig{
		Shards:         urls,
		Quorum:         *quorum,
		HopBudget:      *hopBudget,
		MaxInFlight:    df.InFlight,
		DefaultTimeout: df.Timeout,
		MaxTimeout:     df.MaxTimeout,
		DefaultLimit:   df.Limit,
		MaxLimit:       df.MaxLimit,
		MaxBatch:       df.BatchMax,
		ShardTimeout:   *shardTO,
		Retries:        clientRetries(*retries),
		ProbeInterval:  *probe,
	}
	if !df.Quiet {
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
		coll.NumDocs(), coll.NumNodes(), len(urls), df.Addr)
	if err := daemon.Run(df.Addr, df.DebugAddr, rt.Handler(), df.Drain); err != nil {
		log.Fatal(err)
	}
}

// shardURLs splits the -shards list and checks each entry is a shard base
// URL, http://host[:port][/prefix].
func shardURLs(list string) ([]string, error) {
	urls := strings.Split(list, ",")
	for i, u := range urls {
		urls[i] = strings.TrimRight(strings.TrimSpace(u), "/")
		if urls[i] == "" {
			return nil, fmt.Errorf("-shards entry %d is empty", i)
		}
		if err := shard.CheckURL(urls[i]); err != nil {
			return nil, fmt.Errorf("-shards entry %d: %w", i, err)
		}
	}
	return urls, nil
}

// clientRetries maps -retries onto RouterConfig.Retries, whose 0 takes the
// default: the flag's 0 means one attempt per RPC.
func clientRetries(flag int) int {
	if flag <= 0 {
		return -1
	}
	return flag
}
