// Package server turns a built flix.Index into a long-lived, shared HTTP
// endpoint — the serving layer the paper's framework implies but leaves to
// the host system.  One process loads (or builds) an index once and answers
// concurrent queries over the public API of internal/front (/v1/descendants,
// /v1/connected, /v1/query, /v1/batch: admission, deadlines, limits and the
// wire shapes are the front's).  What is here is what only a node has: the
// index generations and their hot swap under live traffic, the QueryCache
// fronting the descendants path, slow-query tracing, /healthz, /statsz
// (with the §7 self-tuning advice, so operators can see when the
// meta-document layout has gone stale for the live query load), /metrics,
// the reindex admin endpoint and, in shard mode, the shard RPCs.
//
// # Generations
//
// The server holds an atomic pointer to a generation: an immutable
// flix.Index with its own QueryCache and per-strategy latency histograms.
// A request loads the pointer once and uses that generation to the end, so
// a swap never changes anything a running evaluation can see, and every
// response, /statsz block and metrics line carries the generation number
// that served it.  `server.NewPending` starts with no generation: /healthz
// answers 503 and the query endpoints shed until the first Install
// (`TestReadiness`).
//
// Install publishes the new generation with one swap, closes its
// predecessor's retired channel, starts the new generation's warmer and
// returns; it evaluates nothing, so its cost is flat in the size of the hot
// set (`BenchmarkInstall`).  The warmer first carries the outgoing
// cache's entries over unevaluated when the new index answers every query
// as the old one (QueryCache.Inherit), then re-evaluates the remaining hot
// keys hottest first, each only as far as its entry reached, and stores
// them cold: at the LRU tail, only while there is room, so a warmed entry
// never evicts a live one.  It evaluates under the retired channel, so the
// next Install stops it; the keys it did not reach are handed to the
// successor's warmer, which starts only after it has exited.  The sweep is
// bounded by the cache capacity and by supersession, and it has no budget
// setting.  /statsz reports generation.warming, warmPending,
// inheritedQueries and warmedQueries.  `TestSwapTorture` streams queries
// through five swaps under -race and holds every answer to the BFS oracle
// and the counters exactly; `TestInstallBackToBack` swaps twice in a row and
// requires every hot key of the first generation in the third's cache, in
// its order.
//
// A mapped generation is unmapped by its Index's finalizer, never by the
// server: flixd maps only its first generation, and a caller that keeps
// using an index it handed to Install must stay valid.  Every reader holds
// its Index while it reads (`TestMappedGenerationLifetime`).  With a
// snapshot directory each installed generation is persisted (temp file,
// fsync, rename, directory fsync) and the newest warm-starts the next boot;
// a file that does not open is logged and the index is built instead
// (`TestInitialIndexWarmStart`).
//
// # Status
//
// /statsz reports Index.Stats and Index.Advise, the cache, the text
// dictionaries, latency summaries, how the index is stored
// (index.storage: heap or v2, mapped, the container size and per-kind
// section bytes) and the build-phase timings.  Each size appears once: a
// heap-built generation's build.sizeBytes is the canonical stream's length,
// and a snapshot-backed generation's size is index.storage.sizeBytes alone
// (`TestStatszReportsEachSizeOnce`).  A request is labelled with the strategy
// of its start's meta document (Index.StrategyAt), so per-strategy latency
// costs a lookup, not a trace.  A trace is made only when the client asks
// (?trace=1) or the slow-query sampler picks the request; a sampled request
// past the threshold is logged with its request ID and trace summary.  The
// benchmark reads the per-endpoint latencies as
// `server.request_ms_descendants`, `server.request_ms_shard_eval` and their
// siblings; `BenchmarkServeDescendantsHTTP` times the HTTP path in process.
//
// # Shard mode
//
// With a shard identity the server also serves eval streams on
// /v1/shard/eval (the package shard doc's "The transport"): connections
// upgraded to flix-eval/2 whose records each carry a frontier batch in the
// binary frame of package shard, admitted like a request and evaluated by
// flix.PartialDescendants over the meta documents this shard owns, a node
// outside the collection or a seed distance past the element count answered
// 400 (`TestShardEvalRejectsOutOfRangeNodes`).  Its /healthz carries a
// shard block — ring position, the decomposition's fingerprint and the
// three Config fields it follows from — out of which the router derives
// the node→meta-document assignment itself.  The reindex loop is off in
// shard mode, since the router fingerprints the decomposition.
package server
