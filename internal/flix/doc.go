// Package flix implements the FliX framework for indexing large,
// heterogeneous collections of interlinked XML documents (Schenkel, EDBT
// 2004 workshops).
//
// The build phase (§4) partitions the collection into meta documents
// (Meta Document Builder), picks the best path-indexing strategy for each
// (Indexing Strategy Selector) and builds the per-meta-document indexes
// (Index Builder).  The query phase (§5) evaluates descendants-or-self path
// expressions with a priority-queue algorithm that consults the local
// indexes and follows the remaining links at run time, streaming results in
// approximately ascending distance order.
//
// # Decomposition
//
// `flix.Decompose` is the Meta Document Builder and the only place a
// ConfigKind turns into meta documents.  A build calls it, and so does every
// snapshot open: a snapshot stores the indexes, and the meta documents are
// derived from the collection and the stored Config.  The result is a pure
// function of a frozen collection and three Config fields (Kind,
// PartitionSize, MinTreeDocs), so it is kept in the collection's derived
// slot (`xmlgraph.Collection.UpdateDerived`) and every generation built or
// opened over that collection under those fields shares one immutable
// `meta.Set`.  The first call computes under the slot's lock and callers
// arriving meanwhile wait for it (`TestDecompositionConcurrentFirstOpens`);
// another configuration is computed for its caller alone and replaces the
// kept Set only once a build or open has succeeded with it, so a snapshot
// that fails its fingerprints never displaces what the serving generation
// was made from (`TestDecompositionKeptAcrossFailure`).  The Set is never
// written after `meta.Build` returns, and it points back at its collection
// and at no snapshot, so it is collected with the collection
// (`TestCollectionCollectedWithDecomposition`).  `flix.BuildStats.Partition`
// and `BuildStats.MetaBuild` report what this build or open spent on it:
// everything, or zero when it found the Set kept (`TestBuildStats`).  The
// decomposition is linear in elements plus links (`BenchmarkDecompose`) and
// allocates per meta document, not per element (`TestDecomposeAllocBudget`).
// Its output is part of the on-disk format without being on disk — moving
// one element orphans every deployed snapshot — so frozen references of the
// partitioners and builders are kept as test code and hashes of its
// snapshots are recorded (`TestDecompositionIdentityRecorded`).
//
// # Parallel build
//
// `flix.BuildWithOptions` builds the per-meta-document indexes on a pool of
// `flix.BuildOptions` Parallelism workers (0 means GOMAXPROCS).  Build costs
// are skewed — one hub partition can outweigh hundreds of single-document
// trees — so workers claim meta documents in ascending order from one atomic
// counter.  Each result lands in its slot of a pre-sized slice and each
// worker keeps private statistics, merged in worker order, so the index
// bytes, the results and `flix.BuildStats` are the same at every width
// (`TestBuildWithOptionsDeterministic`).  `meta.BuildIndexTimed` splits each
// meta document's time into strategy selection and index construction; the
// benchmark reports build time as `flix.build_s` and `flix.build_index_s`.
// The pool (forEachMeta) is shared with the open: a failure stops further
// claims and the error of the lowest failing meta document is returned,
// which is exactly a serial loop's (`TestOpenErrorIsLowestMeta`).  A worker
// installs the index and its region encoding and nothing else.
//
// # Evaluation
//
// The Path Expression Evaluator (§5.1, Figure 4) is one loop,
// evalRun.run(band) in evaluate.go.  It pops the frontier while the minimum
// distance is within band and takes, per pop, the three steps Figure 4
// names: admit (the duplicate rule; an admitted pop becomes an entry point),
// probe (the meta document's index streams the entry's matches into the
// sink) and follow (each runtime link the entry reaches queues its target at
// dist(e) + dist(e, l) + 1).  With evalRun.reverse set the same loop walks
// the ancestor axis (§5.1).  Each entry point is a thin driver that seeds
// the frontier and picks an axis, a band, a sink and a duplicate rule:
//
//   - Descendants, TypeDescendants and Ancestors run dry, streaming to the
//     caller or, under ExactOrder, through a (dist, node) result buffer
//     flushed below each new frontier minimum;
//   - `flix.Probe` pauses at each band and resumes on the same scratch, so
//     its bands concatenate to the ExactOrder stream;
//   - `flix.PartialDescendants`, a shard's share of a scatter-gather
//     evaluation, runs under the identity rule, diverts entries of foreign
//     meta documents to a hop buffer and, under MaxResults, stops after the
//     first band that holds that many results — an exact prefix; the
//     benchmark times it as `flix.partial_inproc_us`;
//   - ConnectedOpts and ConnectedBidirectional (connect.go) take admit and
//     follow one entry at a time and stop at the best distance found.
//
// All of them leave through one finish, which folds the run's counters into
// QueryStats and hands them to Options.Tracer; Options.Cancel is checked at
// every pop, and a canceled evaluation keeps what it emitted.  The answers
// and the work of every driver are pinned to recorded hashes
// (`TestEvaluatorIdentityRecorded`).
//
// Two duplicate rules exist.  The paper's coverage rule drops an entry that
// an earlier entry point of the same meta document reaches; it is sound only
// when one evaluation sees every entry of a meta document.  The identity rule
// expands a node at its first pop and deduplicates results per node; it is
// the Options.DupSeenSet ablation and the partial driver's rule, since a
// shard sees one round's entries at a time.  Beneath both, a node is queued
// only when its distance beats the one it was queued at before (the relax
// table), so no (node, dist) pair pops twice (`TestNoDoublePop`).  The
// benchmark counts the work as `flix.pops_per_op`, `flix.dup_dropped_ratio`
// and `flix.results_per_op`.
//
// On a region-encoded meta document (PPO) coverage is interval containment:
// the entry points' regions are kept sorted and one binary search decides.
// The follow step sweeps the meta document's `pathindex.LinkTable` minus the
// regions of the earlier entry points nested in the entry, whose links
// already queued their targets nearer; indexes without region encoding test
// each link source with `pathindex.LinkDistances`.  A meta document's link
// table is built by the first query that follows its links and published
// with a compare-and-swap; a racing copy is identical and dropped
// (`TestLinkTablesBuiltOnFirstFollow`, `TestLinkTableConcurrentFirstUse`).
//
// The frontier is a monotone bucket queue: Figure 4's keys are link-hop
// distances and every push lands above the distance being popped, so a push
// appends to its distance's bucket and a bucket is sorted by node once, when
// its turn comes.  The pop order is (dist, node), and a push at or below the
// popped distance panics (`TestFrontierInvariant`).  Per-query state —
// buckets, the entered table, the relax and result tables, the result
// buffer — lives in a scratch checked out of a per-Index sync.Pool,
// allocated apart from the Index so that a pool in use does not keep a
// retired generation alive.  A scratch is sized to the work of its query,
// never to the collection, because a ranked query holds one open probe per
// candidate stream.  An untraced query allocates nothing
// (`TestDescendantsAllocBudget`).
//
// # Snapshots
//
// `flix.Index.WriteSnapshotV2With` writes the v2 container of package
// storage: one section per meta document plus a manifest holding the
// configuration and, per meta document, a fingerprint — node count,
// runtime-link count and `meta.MetaDocument.LinkHash`.  `flix.OpenSnapshot`
// checks the checksum and the manifest, then per meta document, on the
// build's worker pool, its fingerprint against the kept Set and its section
// opened in place.  An open validates and builds nothing else; what it
// rejects fails with `flix.ErrSnapshotCorrupt` or, for a future version,
// `flix.ErrSnapshotVersion`, never a panic.  `BenchmarkOpenSnapshot` times
// opens per configuration.  A mapped Index is unmapped by a finalizer, so
// every evaluation, probe and writer keeps its Index reachable while it
// reads (`TestMappedLifetimeSnapshotWrite`).  `flix.Index.WriteTo` writes
// the canonical stream Table 1 measures; an index holding a `ppo.CIndex`
// cannot write it and returns an error having written nothing
// (`TestWriteToCompressedErrors`).
//
// # Query cache
//
// A QueryCache entry is a prefix of a key's plain stream (IncludeSelf, no
// limits, approximate order) with a complete flag.  A request hits when the
// entry is complete or its replay reaches the request's k inside the
// prefix; the evaluation is deterministic, so a prefix replays what the
// full stream would.  With `flix.QueryCache.StoreBounded` a miss stops
// evaluating once the caller has its k and stores that prefix; an
// order=exact miss stores the complete plain stream and replays it sorted.
// A store never shrinks an entry, and every answer equals the replay of the
// complete stream (`TestCacheTransparent`).  On a generation swap Inherit
// carries the old entries over unevaluated when the new index answers every
// query as the old one (one decomposition and one index, or byte-identical
// snapshot images); Warm re-evaluates the rest hottest first and stores
// them cold, at the LRU tail, under a cancel channel the next swap closes.
package flix
