// Package front is the HTTP front that flixd (internal/server) and
// flixd-router (internal/shard) both serve the public query API through.
// It owns the wire contract — request IDs, the access log, admission
// (readiness → cluster saturation → semaphore → deadline), parameter
// parsing, node resolution and rendering, the /v1/descendants,
// /v1/connected, /v1/query and /v1/batch handlers, the JSON success and
// error shapes, and the per-endpoint request counters and latency
// histograms with their /metrics exposition — and evaluates nothing itself:
// every admitted request runs against a Backend the serving Tier opens for
// it.  The paper's client is decoupled from the framework (§3.1); this
// package is where that decoupling lives, once, for both tiers.
//
// # Requests
//
// Front.ServeHTTP gives every response an X-Flix-Request-Id (a valid
// incoming one is reused, anything else replaced, so hostile values reach
// neither a log line nor a shard RPC) and, with a logger, one access-log
// line.  Endpoint.Admit counts the request, asks the tier's gate (503 with
// Retry-After before readiness; on the router also 429 while every ready
// shard is saturated), takes an in-flight slot or sheds with 429 at once —
// a queued request's deadline keeps running while it waits — and sets the
// deadline (?timeout= clamped to the maximum, 400 when malformed).
// A shard's eval records are admitted through the same function under
// the shard's gate and the maximum deadline, on an eval stream: a
// connection the front upgrades with Front.Upgrade (a request without the
// upgrade is answered 426), takes from net/http and tracks itself, since
// http.Server's Shutdown does not reach it (Front.DrainStreams).  Parameters are parsed once: k is clamped
// to the limit, a maxdist past the int32 range means no bound
// (`TestContractMaxDistClamped`), and a start, from or to value is a
// document name or a node ID.
//
// A batch runs in one fixed order: items the tier answers without
// evaluating first (Backend.Locate: on a node, a cache entry that reaches
// the item's k), then descendants items grouped by the start's meta
// document, then ranked items grouped by first-step tag.  The deadline is
// checked before each item; past it the completed prefix is returned with
// 200 and the rest marked skipped, and an item's error never fails the
// batch.
//
// # Backends
//
// A node's `front.Backend` is a session pinned to the generation current when the
// request was admitted; the router's is a scatter-gather over the cluster.
// Backend.Finish fills a typed `front.Reply` and is the only place a tier
// touches a response, so the keys in which the two tiers differ are exactly
// the ones Reply holds: generation and truncated on a node, partial,
// failedShards and rounds on the router, and a trace under ?trace=1.  The
// wire-contract suite runs one table against a `server.New` handler and a
// `shard.NewRouter` handler over two shards and allows nothing else to
// differ (`TestContractSameAnswers`), and a golden file recorded on
// the node is replayed against both byte for byte (`TestGoldenReplay`).
// Front.WriteMetrics writes the request counters, latency histograms and Go
// runtime gauges of both tiers under the tier's prefix — flix_ on a node,
// flix_router_ on the router — because a router request fans out into
// several node requests and the two must not be summed.
//
// # Rendering
//
// A handler collects hits — (node, dist), and a score on ranked results —
// into the pooled buffer it renders from; tag, document and text are read
// from the collection when an element is written.  The encoder appends the
// final indented bytes in one pass, and the output is byte for byte what
// encoding/json's indenting Encoder writes for the exported wire structs
// (`TestRenderMatchesEncodingJSON`; strings `FuzzRenderString`, floats
// `TestRenderScoreForms`, the pools under -race `TestRenderConcurrent`), and
// it decodes into those structs (`TestRenderDecodesIntoWireStructs`).  An element whose tag, document name and text
// need no escaping and whose text is its own snippet goes out verbatim:
// `front.New` marks those elements in one bit per node, once per front
// (`FuzzVerbatim` holds the rule; `BenchmarkVerbatimSet` times the marking).
// It also fuses an element's constant text, per depth, into one string
// between each pair of values, and per plain tag one string from the node
// value to the document name, so a verbatim element is nine copies; node
// IDs and distances go through a digit-pair integer writer
// (`TestRenderIntegerForms`).  Each response is one Write
// (`TestRenderWritesOnce`).
// Other texts are cut at 80 bytes on a rune boundary
// (`TestSnippetCutsOnRuneBoundary`, `FuzzSnippet`).  Everything that is not a
// query answer — /statsz, /healthz, the admin and shard endpoints — goes
// through `front.OK`'s pooled encode-then-indent path; error bodies through
// `front.Fail`.  A warm 100-result response allocates 16 bytes, the
// Content-Type header value (`TestOKAllocBudget`), and a response above
// 1 MiB is not pooled (`TestOKDropsHugeBuffers`).
package front
