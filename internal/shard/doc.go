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
// The ring (ring.go) places shards × vnodes points by FNV-64a through a
// splitmix64 finalizer — raw FNV has no avalanche, and sequential meta keys
// would cluster on one arc.  It is pure computation from (shards, vnodes),
// so the router and every shard derive the same owners with no coordination;
// identical decompositions are enforced by a fingerprint on every RPC.
// Every shard builds the full index but evaluates only inside the meta
// documents it owns.
//
// # The eval frame
//
// POST /v1/shard/eval is the one hot exchange between the tiers, so both
// directions are one hand-written binary frame decoded by a bounds-checked
// cursor: no reflection, one allocation per slice, never more than the bytes
// left could hold.
//
//	field     request        response                            encoding
//	version   1              1                                   one byte; JSON is told it is JSON
//	flags     bit 0 Trace    bit 0 Truncated, bit 1 trace        one byte; unknown bits are an error
//	scalars   K, MaxDist     Generation, Pops, Entries, LinkHops uvarint; an int32 as its uint32 bits
//	string    Tag            Fingerprint                         uvarint length, bytes
//	entries   Entries        Results, then Hops                  uvarint count, then (node, dist) pairs
//	trace     —              obs.TraceFragment as JSON           uvarint length, bytes
//
// Trailing bytes are an error, a count is refused when it exceeds half the
// bytes left, and a frame that does not decode is a retryable shard failure
// on the router (`TestClusterMalformedShardFrame`, `FuzzEvalFrame`).  There
// is no JSON fallback: router and shards must agree on ring and fingerprint
// anyway, so they are deployed together.
//
// # The gather
//
// The router (gather.go) is the outer Dijkstra loop: it stages hops per
// owning shard, dispatches a round to every shard with staged work, dedupes
// hops against a best-distance map and min-merges the sorted per-shard runs.
// Both sides relax with exact local distances, so the merged stream carries
// exact global shortest distances, checked against the BFS oracle at 1, 2
// and 4 shards (`TestClusterDescendantsMatchesOracle`).  Top-k and
// connection queries stop once the answer is final below the pending
// frontier's watermark (the smallest staged distance); both stops are exact.
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
// k.  The `sharded` workload reports the tier's shape: rounds per gather
// (`shard.rounds_per_gather`), RPCs (`shard.rpcs_per_op`), re-dispatched
// hops (`shard.hops_redispatched_per_op`), the RPC time
// (`shard.rpc_ms_mean`) and the router's own (`shard.router_self_ms`).
//
// A shard that fails mid-query, after per-attempt timeouts, retries with
// backoff and the hop budget, is dropped from that query: what remains is a
// sound subset flagged partial, with the shard in failedShards and in the
// X-Flix-Shards-Failed header (`TestClusterShardKilledMidQuery`).  The gate
// answers 503 until a quorum of shards probes ready and 429 while every
// ready shard is saturated.
//
// # Tracing
//
// Under ?trace=1 every shard RPC carries the trace flag and the shard
// answers with an `obs.TraceFragment`: aggregates only, its per-meta rows
// capped, totals computed before the cap, so its size is bounded whatever
// the query.  The router's trace builder is touched only by the gather's
// receive goroutine, so assembly needs no lock
// (`TestClusterTraceConcurrent`).  It counts gathers, rounds, dispatches
// and hops at the same program points as the router's /metrics counters,
// and a trace equals their deltas to the integer
// (`TestClusterTraceReconcilesWithMetrics`).  Span offsets are durations on
// the router's clock; a shard contributes only its self-measured times, so
// no clocks are compared.  An untraced gather pays one nil check per hook.
package shard
