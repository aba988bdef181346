// Package shard is the scatter-gather serving tier over FliX's meta
// documents: a consistent-hash ring assigns meta-document IDs to shards,
// each shard (a flixd process in shard mode) answers partial-frontier
// evaluations over the meta documents it owns, and the router replays the
// paper's priority-queue evaluation one level up — re-dispatching
// cross-shard link hops to their owning shards and merging the per-shard
// streams into one distance-ordered result stream.
//
// Meta documents are the natural distribution unit: the framework already
// localizes all index structure per meta document and resolves everything
// that crosses them through runtime links, so a shard can answer its share
// of the frontier exactly, and only the hops travel.
//
// # Ownership
//
// The ring (ring.go) places shards × DefaultVNodes points by FNV-64a through
// a splitmix64 finalizer — raw FNV has no avalanche, and sequential meta keys
// would cluster on one arc.  It is pure computation from the shard count, so
// the router and every shard derive the same owners with no coordination.
// Every shard builds the full index but evaluates only inside the meta
// documents it owns.
//
// The router needs the node→meta-document assignment to route a hop, and
// derives it: the assignment is a pure function of the collection and three
// Config fields, the router loads the same collection, and each shard's
// /healthz announces the three fields (`decomposition`: kind, partitionSize,
// minTreeDocs) beside their fingerprint.  A topology load runs flix.Assign — the partitioner and the
// flatten, no local graphs — and refuses the result unless it hashes to the
// announced fingerprint, so a shard built over another collection or
// announcing settings it was not built with never routes a hop
// (`TestRouterRefusesForeignDecomposition`).  Every eval answer carries the
// fingerprint again.  A shard whose probe fails announces nothing, so the
// live shards can move the router to a new decomposition while one is down
// (`TestRouterReloadsPastDeadShard`).
//
// # The eval frame
//
// POST /v1/shard/eval is the one hot exchange between the tiers, so both
// directions are one hand-written binary frame decoded by a bounds-checked
// cursor: no reflection, one allocation per slice, never more than the bytes
// left could hold.
//
//	field     request        response                      encoding
//	version   2              2                             one byte; JSON is told it is JSON
//	flags     bit 0 Trace    bit 0 Truncated, bit 1 trace  one byte; unknown bits are an error
//	scalars   K, MaxDist     Generation                    uvarint; an int32 as its uint32 bits
//	string    Tag            Fingerprint                   uvarint length, bytes
//	entries   Entries        Results, then Hops            uvarint count, then (node, dist) pairs
//	trace     —              obs.TraceFragment as JSON     uvarint length, bytes
//
// The shard's evaluation effort (pops, entries, link hops) travels only in
// the trace fragment: a traced gather sets the flag on every RPC and is the
// only reader.  Version 1 also sent the three counters as response scalars;
// a version-1 peer fails the header check.
//
// Trailing bytes are an error, a count is refused when it exceeds half the
// bytes left, and a frame that does not decode is a retryable shard failure
// on the router (`TestClusterMalformedShardFrame`, `FuzzEvalFrame`).  A
// frame that decodes is still not trusted: before the gather merges an
// answer, every result and hop must name a node of the topology at a
// distance of at least 0, or the shard is dropped from the query as on a
// fingerprint mismatch, without a retry (`TestClusterForgedShardEntries`).
// There
// is no JSON fallback: router and shards must agree on ring and fingerprint
// anyway, so they are deployed together.
//
// # The gather
//
// The router (gather.go) is the outer Dijkstra loop: it stages hops per
// owning shard, dispatches a round to every shard with staged work, dedupes
// hops against the best distance each node entered the frontier at and
// min-merges the per-shard runs into the smallest distance per result.
// Both per-node tables are the evaluator's flix.NodeTable, which resets in
// O(1), used as the shard's partial driver uses them: one relaxes the
// frontier, the other maps each result node to its place in a dense list of
// packed (distance, node) keys.  The top-k bound selects from a copy of that
// list, and the final (dist, node) order is pathindex.SortDistNode over it.
// Tables, list and key buffers live in one per-gather state pooled on the
// Router, so a warm gather allocates only its answer, its batches and its
// RPCs, and every exit returns the state reset
// (`TestGatherPooledStateReset`).
// Both sides relax with exact local distances, so the merged stream carries
// exact global shortest distances, checked against the BFS oracle at 1, 2
// and 4 shards (`TestClusterDescendantsMatchesOracle`).  A connection query
// stops once the target's distance is at or below the pending frontier's
// watermark (the smallest staged distance).
//
// A top-k gather bounds its rounds by the answer it already holds.  Once it
// holds needK results, let D be the needK-th smallest held distance (a
// selection over the pooled key buffer, once per round).  First, needK distinct
// nodes lie at D or nearer, and min-merging only lowers distances, so the
// answer lies at or below D.  Second, every distance grows along a path,
// so a staged entry beyond D leads only beyond D: a round dispatches none
// of them (`hopsBounded` counts what it drops) and sends D as its maxdist,
// which the shard honours for seeds, bands, results and hops.  Third,
// entries and results at exactly D are kept, because the node order breaks
// ties there.  Fourth, D below the watermark is exactly the old stop — at
// least needK results strictly below the watermark — so the gather stops
// in the same round as before, and the answers are unchanged
// (`TestRouterBodiesRecorded`, `TestClusterTopKEarlyStop`).  The watermark's
// own entry is at or below D, so a bounded round is never empty; and D = 0
// always stops, since every staged hop is a link away, so maxdist 0 keeps
// meaning "no bound" on the wire.  `TestTracedDispatchCarriesBound` checks
// the bound each dispatch carries.  Since the shards return no hop beyond
// D, a gather that would have stopped with such hops staged now ends with
// its frontier empty, so `flix_router_early_stops_total` counts fewer stops
// for the same rounds.
//
// The request's k travels to the shards (EvalRequest.K), and a shard stops
// after the first distance band that holds k results: it returns those k
// and the hops within the band, never more (flix.PartialDescendants).  The
// router's answer cannot change: a result a shard cuts has k distinct nodes
// ahead of it in its own response, and min-merging only lowers distances, so
// it is never in the global k-prefix; a hop a shard drops lies beyond a band
// that already holds k final results.  Nor can the round the stop fires in:
// if a cut result lies below the watermark, so do the k results ahead of it,
// and a watermark raised by a dropped hop lies above a band that already
// stops the gather.  `TestRouterBodiesRecorded` replays 312 router answers
// against hashes recorded before the shards cut, and
// `TestClusterTopKEarlyStop` checks k, self and maxdist against the oracle
// prefix.  `BenchmarkGather` times a gather over loopback with and without
// k and reports its rounds, the hops the shards returned and the entries
// the bound dropped.  The `sharded` workload reports the tier's shape:
// rounds per gather (`shard.rounds_per_gather`), RPCs (`shard.rpcs_per_op`),
// re-dispatched hops (`shard.hops_redispatched_per_op`), the RPC time
// (`shard.rpc_ms_mean`) and the router's own (`shard.router_self_ms`).
//
// A shard that fails mid-query, after per-attempt timeouts, retries with
// backoff and the hop budget, is dropped from that query: what remains is a
// sound subset flagged partial, with the shard in failedShards and in the
// X-Flix-Shards-Failed header (`TestClusterShardKilledMidQuery`).  The gate
// answers 503 until a quorum of shards probes ready and 429 while every
// ready shard is saturated.
//
// # The transport
//
// The router's shard client (client.go) speaks HTTP/1.1 on connections it
// owns; net/http's client is not used.  Each shard has a pool of up to 32
// idle keep-alive connections, each with a bufio reader and writer.  An RPC
// runs on the calling goroutine.  It takes the most recently used idle
// connection or dials one, and writes a fixed request head and the frame in
// one flush.  The head holds the request line, Host, Content-Type,
// Content-Length and the request ID, which is left out unless
// front.SanitizeRequestID accepts it.  http.ReadResponse parses the answer,
// so the HTTP codec stays the standard library's, and the body is read in
// full, at most 64 MiB of it, before the connection goes back to the pool.
// A gather round with one active shard (every round of `sharded`) calls
// the client on the gather's own goroutine: no goroutine starts and no
// channel carries the answer.  Rounds with more active shards fan out.
//
// The rules of net/http's Transport that the router relied on are kept,
// each pinned by a `TestClient*` row:
//   - an attempt's deadline, min(ctx deadline, now+Timeout), is the
//     connection's deadline (`TestClientAttemptTimeout`);
//   - a ctx that ends interrupts the I/O through context.AfterFunc; the RPC
//     returns ctx.Err() and the connection is closed, never pooled
//     (`TestClientCancelMidRPC`);
//   - a request that fails on a reused connection before any answer byte
//     met a connection the shard closed while it sat idle, and is sent once
//     more on a fresh connection without spending an attempt; an eval is
//     read-only, so that is safe (`TestClientStaleIdleConn`);
//   - 5xx, 429 and network errors are retried with backoff, other 4xx fail
//     at once (`TestClientStatusHandling`);
//   - a `Connection: close` answer is read and its connection dropped, and
//     a chunked body is read to its end (`TestClientResponseFraming`);
//   - the router's Start context ending closes the idle connections
//     (`TestClientClosesIdleAtShutdown`).
//
// NewRouter refuses a shard URL that is not http://host[:port][/prefix],
// naming it; a path prefix is kept in both request targets
// (`TestClientURLs`).
//
// # Tracing
//
// Under ?trace=1 every eval frame carries the trace flag and the shard
// answers with an `obs.TraceFragment`: aggregates only, its per-meta rows
// capped, totals computed before the cap, so its size is bounded whatever
// the query.  The router's trace builder, touched only by the gather's
// own goroutine, assembles spans and per-shard rollups without a lock
// (`TestClusterTraceConcurrent`) and counts nothing: a gather tallies its
// rounds, fanouts and hops once, /metrics and /statsz add up the tallies,
// and a trace's scalars are the sum of its request's, so they equal the
// counter deltas to the integer (`TestClusterTraceReconcilesWithMetrics`).
// Span offsets are durations on the router's clock; a shard contributes
// only its self-measured times, so no clocks are compared.  An untraced
// gather pays one nil check per hook.
package shard
