// Command flixd serves a FliX index over HTTP: it loads a directory of XML
// documents, restores a persisted index (or builds one), and answers
// concurrent connection and ranked-path queries until terminated.
//
// Usage:
//
//	flixd -dir ./docs [-addr :8080] [-load index.flix] [-config hybrid]
//	      [-build-parallelism 0] [-ontology tags.txt] [-inflight 64]
//	      [-timeout 2s] [-cache 1024] [-slow-query 100ms]
//	      [-slow-query-sample 10] [-debug-addr :6060]
//	      [-reindex-interval 0] [-snapshot-dir gens/] [-snapshot-retain 3]
//	      [-snapshot-compress] [-mmap]
//	      [-shard-id 0 -shard-count 3]
//
// Endpoints (see internal/server):
//
//	GET  /v1/descendants?start=<doc|node>&tag=<tag>[&k=][&maxdist=][&timeout=]
//	GET  /v1/connected?from=<doc|node>&to=<doc|node>[&maxdist=]
//	GET  /v1/query?q=<expr>[&k=]
//	POST /v1/batch             {"queries": [{"q": ...} | {"start": ..., "tag": ...}, ...]}
//	POST /v1/admin/reindex[?dry=1][&force=1]
//	GET  /healthz · /statsz · /metrics
//
// The server binds its port immediately and builds the initial index in the
// background; /healthz answers 503 (not ready) until generation 1 is live.
// With -reindex-interval > 0 a background re-optimizer re-plans the index
// against the live query load and hot-swaps improved generations in without
// dropping a query; -snapshot-dir persists each generation (pruned to
// -snapshot-retain) and warm-starts from the newest one on restart.
// Generations are persisted as v2 snapshots — the offset-based container
// that warm start and -load serve straight from a read-only memory mapping
// (-mmap, default on) with no parse step.  -snapshot-compress writes PPO
// sections in their bit-packed encoding (ppo-c), falling back to raw per
// section when it would not pay, and served zero-copy just like raw ones;
// HOPI sections have one codec (hopi-c) whatever the flag.
//
// With -shard-id/-shard-count the process runs as one shard of a
// flixd-router cluster: it builds the same full index, additionally serves
// eval streams on /v1/shard/eval (a connection upgraded to flix-eval/2,
// then one length-prefixed record each way per RPC carrying the router's
// binary frame, not JSON: a frontier batch and the query's k in, the k
// nearest local results and the hops up to the band they were found in
// out), and answers partial-frontier evaluations
// over the meta documents the consistent-hash ring assigns to it.  Its
// /healthz carries a shard block: the ring position, the decomposition's
// fingerprint and the three settings it is derived from (kind,
// partitionSize, minTreeDocs), from which the router computes the
// node→meta-document assignment over its own copy of the collection.  The
// live-reindex loop is disabled in shard mode (the router fingerprints the
// decomposition).
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight queries before exiting (bounded by -drain).
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"time"

	flix "repro"
	"repro/internal/front/daemon"
	"repro/internal/rebuild"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flixd: ")
	df := daemon.DeclareFlags(flag.CommandLine, ":8080")
	var (
		loadIx   = flag.String("load", "", "restore a persisted index from this file instead of building")
		config   = flag.String("config", "hybrid", "configuration: naive | maximal-ppo | unconnected-hopi | hybrid | monolithic | element-level")
		partSize = flag.Int("partition", 5000, "partition size bound for unconnected-hopi / hybrid / element-level")
		strategy = flag.String("strategy", "", "force a per-meta-document strategy: ppo | hopi | apex")
		buildPar = flag.Int("build-parallelism", 0, "index-build worker pool width (0 = all CPUs, 1 = serial)")
		cacheSz  = flag.Int("cache", 1024, "query-cache capacity (0 disables)")
		slowQ    = flag.Duration("slow-query", 0, "log sampled queries slower than this with their full trace (0 disables)")
		slowN    = flag.Int("slow-query-sample", 1, "trace 1 in N queries for the slow-query log")
		reindex  = flag.Duration("reindex-interval", 0, "re-plan the index against the live load this often and hot-swap improvements (0 disables the loop; POST /v1/admin/reindex still works)")
		minQ     = flag.Int64("reindex-min-queries", 50, "queries a generation must serve before its statistics are trusted")
		snapDir  = flag.String("snapshot-dir", "", "persist each index generation here and warm-start from the newest (empty disables)")
		snapKeep = flag.Int("snapshot-retain", 3, "generation snapshots to keep in -snapshot-dir")
		snapZip  = flag.Bool("snapshot-compress", false, "persist PPO sections bit-packed (ppo-c) where that pays; HOPI sections are hopi-c either way")
		useMmap  = flag.Bool("mmap", true, "serve snapshots from a read-only memory mapping instead of reading them into the heap")
		shardID  = flag.Int("shard-id", -1, "run as shard N of a flixd-router cluster (-1 disables shard mode)")
		shardN   = flag.Int("shard-count", 0, "total shards in the cluster (required with -shard-id)")
	)
	flag.Parse()
	if df.Dir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *shardID >= 0 && (*shardN < 1 || *shardID >= *shardN) {
		log.Fatalf("-shard-id %d needs -shard-count > %d", *shardID, *shardID)
	}

	coll, onto, err := daemon.Corpus(df.Dir, df.Ontology)
	if err != nil {
		log.Fatal(err)
	}

	kind, err := flix.ParseConfigKind(*config)
	if err != nil {
		log.Fatal(err)
	}
	cfg := flix.Config{Kind: kind, PartitionSize: *partSize, Strategy: *strategy}

	scfg := server.Config{
		MaxInFlight:        df.InFlight,
		DefaultTimeout:     df.Timeout,
		MaxTimeout:         df.MaxTimeout,
		DefaultLimit:       df.Limit,
		MaxLimit:           df.MaxLimit,
		MaxBatch:           df.BatchMax,
		CacheSize:          *cacheSz, // 0 from the flag means disabled
		SlowQueryThreshold: *slowQ,
		SlowQuerySample:    *slowN,
	}
	if *cacheSz <= 0 {
		scfg.CacheSize = -1
	}
	if *shardID >= 0 {
		scfg.Shard = &server.ShardConfig{ID: *shardID, Count: *shardN}
		// A shard's meta-document decomposition is fingerprinted into the
		// router's topology; swapping to a re-partitioned index mid-flight
		// would silently remap node ownership, so the reindex loop stays
		// off in shard mode (cluster reindexing is a rolling restart).
		if *reindex > 0 {
			log.Printf("shard mode: ignoring -reindex-interval %s", *reindex)
			*reindex = 0
		}
	}
	if !df.Quiet {
		scfg.Logger = log.New(os.Stderr, "flixd: ", 0)
	}
	// The server starts pending: the port binds and /healthz answers (503)
	// immediately while the initial index builds in the background.
	s := server.NewPending(coll, scfg)
	s.SetOntology(onto)

	// Initial build + live-reindexing loop, off the serving path.  A build
	// failure is fatal: a server that can never become ready should crash
	// loudly, not 503 forever.
	rebuildCtx, stopRebuild := context.WithCancel(context.Background())
	defer stopRebuild()
	go func() {
		ix := initialIndex(coll, cfg, *loadIx, *snapDir, *buildPar, *useMmap)
		log.Print(ix.Describe())
		gen := s.Install(ix, "initial index")
		log.Printf("generation %d live", gen)
		mgr := rebuild.New(coll, s, rebuild.Config{
			Interval:         *reindex,
			MinQueries:       *minQ,
			Parallelism:      *buildPar,
			SnapshotDir:      *snapDir,
			Retain:           *snapKeep,
			SnapshotCompress: *snapZip,
			Logger:           log.Default(),
		})
		s.SetReindexer(mgr)
		if *reindex > 0 {
			log.Printf("live reindexing every %s", *reindex)
		}
		mgr.Run(rebuildCtx) // returns immediately when -reindex-interval is 0
	}()

	if *shardID >= 0 {
		log.Printf("serving %d documents / %d elements on %s as shard %d/%d",
			coll.NumDocs(), coll.NumNodes(), df.Addr, *shardID, *shardN)
	} else {
		log.Printf("serving %d documents / %d elements on %s", coll.NumDocs(), coll.NumNodes(), df.Addr)
	}
	if err := daemon.Run(df.Addr, df.DebugAddr, s.Handler(), df.Drain); err != nil {
		log.Fatal(err)
	}
}

// initialIndex produces generation 1: an explicitly named snapshot (-load),
// else the newest generation snapshot in -snapshot-dir (warm start — a
// stale, foreign or incompatible one falls back to building), else a fresh
// build.  Snapshots are served in place, mapped when useMmap.
func initialIndex(coll *flix.Collection, cfg flix.Config, loadIx, snapDir string, parallelism int, useMmap bool) *flix.Index {
	t0 := time.Now()
	if loadIx != "" {
		ix, err := flix.OpenSnapshotWith(coll, loadIx, flix.OpenOptions{Mmap: useMmap})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("index restored from %s (%s) in %s",
			loadIx, ix.StorageInfo().Format, time.Since(t0).Round(time.Millisecond))
		return ix
	}
	if snapDir != "" {
		if path, err := rebuild.LatestSnapshot(snapDir); err == nil && path != "" {
			ix, err := flix.OpenSnapshotWith(coll, path, flix.OpenOptions{Mmap: useMmap})
			if err == nil {
				log.Printf("index warm-started from %s (%s) in %s",
					path, ix.StorageInfo().Format, time.Since(t0).Round(time.Millisecond))
				return ix
			}
			log.Printf("warning: snapshot %s unusable (%v); building fresh", path, err)
		}
	}
	ix, err := flix.BuildWithOptions(coll, cfg, flix.BuildOptions{Parallelism: parallelism})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("index built in %s (%s)", time.Since(t0).Round(time.Millisecond), ix.BuildStats())
	return ix
}
