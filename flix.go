// Package flix is the public API of this FliX reproduction — a flexible
// framework for indexing large, heterogeneous collections of interlinked
// XML documents (Ralf Schenkel, "FliX: A Flexible Framework for Indexing
// Complex XML Document Collections", EDBT 2004 Workshops).
//
// FliX partitions an XML collection into meta documents, picks the best
// path-indexing strategy for each one (pre/postorder, HOPI 2-hop labels,
// APEX, ...), and evaluates descendants-or-self ("connection") queries by
// combining the per-meta-document indexes with run-time link traversal,
// streaming results in approximately ascending distance order.
//
// # Quick start
//
//	coll := flix.NewCollection()
//	doc := coll.NewDocument("movies.xml")
//	m := doc.Enter("movie", "")
//	doc.AddLeaf("title", "Matrix: Revolutions")
//	doc.Leave()
//	doc.Close()
//	coll.Freeze()
//
//	ix, err := flix.Build(coll, flix.DefaultConfig())
//	// handle err
//	ix.Descendants(m, "title", flix.Options{}, func(r flix.Result) bool {
//		fmt.Println(coll.Tag(r.Node), r.Dist)
//		return true
//	})
//
// Real XML text is loaded with NewLoader (see package
// repro/internal/xmlparse for the recognized link syntax), ranked path
// expressions with structural and semantic vagueness are evaluated with
// ParseQuery + Evaluator, and the paper's experiments are regenerated by
// cmd/flixbench and the root benchmark suite.
package flix

import (
	"repro/internal/flix"
	"repro/internal/meta"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/query"
	"repro/internal/xmlgraph"
	"repro/internal/xmlparse"
)

// Core data-model types (see repro/internal/xmlgraph).
type (
	// Collection is a set of interlinked XML documents — the graph G_X
	// of the paper's data model.
	Collection = xmlgraph.Collection
	// DocumentBuilder constructs one document element by element.
	DocumentBuilder = xmlgraph.DocumentBuilder
	// NodeID identifies an element in a collection.
	NodeID = xmlgraph.NodeID
	// DocID identifies a document in a collection.
	DocID = xmlgraph.DocID
	// Link is a non-tree edge of the data graph.
	Link = xmlgraph.Link
	// EdgeKind distinguishes child, intra- and inter-document edges.
	EdgeKind = xmlgraph.EdgeKind
	// Stats summarizes a collection's structure.
	Stats = xmlgraph.Stats
)

// Framework types (see repro/internal/flix).
type (
	// Index is a built FliX index; it is immutable and safe for
	// concurrent queries.
	Index = flix.Index
	// Config tunes the build phase.
	Config = flix.Config
	// ConfigKind selects one of the predefined configurations (§4.3).
	ConfigKind = flix.ConfigKind
	// Options tunes query evaluation (top-k, distance threshold, exact
	// ordering).
	Options = flix.Options
	// Result is one query answer.
	Result = flix.Result
	// Emit receives results; return false to cancel.
	Emit = flix.Emit
	// QueryLoad hints the Indexing Strategy Selector.
	QueryLoad = meta.QueryLoad
	// QueryStats aggregates query-load counters for self-tuning.
	QueryStats = flix.QueryStats
	// StatsSnapshot is an immutable copy of the QueryStats counters.
	StatsSnapshot = flix.Snapshot
	// Advice is the outcome of Index.Advise, the §7 self-tuning
	// heuristic.
	Advice = flix.Advice
	// QueryCache memoizes frequent descendants queries (§7).
	QueryCache = flix.QueryCache
	// BuildStats breaks the build phase into its timed components.
	BuildStats = flix.BuildStats
	// StrategyBuild aggregates index construction per strategy.
	StrategyBuild = flix.StrategyBuild
	// BuildOptions tunes how the build phase executes (worker-pool
	// parallelism); the built index is identical at every setting.
	BuildOptions = flix.BuildOptions
	// WorkerBuild is one build worker's aggregate within BuildStats.
	WorkerBuild = flix.WorkerBuild
)

// Observability types (see repro/internal/obs).
type (
	// Trace records span-like events of one query evaluation; attach one
	// via Options.Tracer (or Evaluator.Tracer) and read it back with
	// Trace.Summary.  A nil tracer costs a single pointer check per event
	// site.
	Trace = obs.Trace
	// TraceSummary is the aggregated, renderable form of a trace — the
	// EXPLAIN output.
	TraceSummary = obs.Summary
	// MetaVisit aggregates one meta document's activity within a trace.
	MetaVisit = obs.MetaVisit
	// Histogram is a lock-free log-bucketed latency histogram.
	Histogram = obs.Histogram
	// HistSnapshot is a point-in-time histogram copy with quantiles.
	HistSnapshot = obs.HistSnapshot
)

// Query-language types (see repro/internal/query and
// repro/internal/ontology).
type (
	// Query is a parsed path expression like //~movie//actor.
	Query = query.Query
	// Evaluator ranks query results with structural and semantic
	// vagueness.
	Evaluator = query.Evaluator
	// Match is one ranked result.
	Match = query.Match
	// Ontology is a weighted tag-similarity graph.
	Ontology = ontology.Ontology
	// Loader parses XML documents into a collection.
	Loader = xmlparse.Loader
)

// Edge kinds.
const (
	EdgeChild     = xmlgraph.EdgeChild
	EdgeIntraLink = xmlgraph.EdgeIntraLink
	EdgeInterLink = xmlgraph.EdgeInterLink
)

// InvalidNode is the NodeID of no element.
const InvalidNode = xmlgraph.InvalidNode

// Configuration kinds (§4.3 of the paper).
const (
	// Naive: one meta document per XML document.
	Naive = flix.Naive
	// MaximalPPO: maximal tree partitions indexed with PPO.
	MaximalPPO = flix.MaximalPPO
	// UnconnectedHOPI: size-bounded partitions indexed with HOPI.
	UnconnectedHOPI = flix.UnconnectedHOPI
	// Hybrid: MaximalPPO for tree-like regions, UnconnectedHOPI for the
	// rest.
	Hybrid = flix.Hybrid
	// Monolithic: the whole collection as one meta document.
	Monolithic = flix.Monolithic
	// ElementLevel: size-bounded meta documents cut at the element
	// level, ignoring document boundaries (§7 future work).
	ElementLevel = flix.ElementLevel
)

// Query-load hints.
const (
	LoadDescendants = meta.LoadDescendants
	LoadShortPaths  = meta.LoadShortPaths
)

// NewCollection returns an empty collection; add documents with
// Collection.NewDocument, links with Collection.AddLink, and call Freeze
// before Build.
func NewCollection() *Collection { return xmlgraph.NewCollection() }

// NewLoader returns a loader that parses XML text into a fresh collection,
// resolving id/idref and (x)link:href references into graph edges.
func NewLoader() *Loader { return xmlparse.NewLoader() }

// ComputeStats analyses the structure of a collection.
func ComputeStats(c *Collection) Stats { return xmlgraph.ComputeStats(c) }

// ParseConfigKind returns the configuration kind ConfigKind.String names:
// naive, maximal-ppo, unconnected-hopi, hybrid, monolithic or element-level.
func ParseConfigKind(name string) (ConfigKind, error) { return flix.ParseConfigKind(name) }

// DefaultConfig returns the recommended configuration: Hybrid partitions of
// at most 5000 elements.
func DefaultConfig() Config { return flix.DefaultConfig() }

// Build runs the FliX build phase: meta documents, strategy selection,
// index construction.  It parallelizes across all CPUs; use
// BuildWithOptions to bound the worker pool.
func Build(c *Collection, cfg Config) (*Index, error) { return flix.Build(c, cfg) }

// BuildWithOptions is Build with explicit execution options: the
// per-meta-document index builds run on a worker pool of
// opts.Parallelism workers (0 = GOMAXPROCS, 1 = serial).  The resulting
// index is identical at every parallelism level.
func BuildWithOptions(c *Collection, cfg Config, opts BuildOptions) (*Index, error) {
	return flix.BuildWithOptions(c, cfg, opts)
}

// OpenOptions tunes OpenSnapshotWith (memory mapping on/off).
type OpenOptions = flix.OpenOptions

// StorageInfo describes how an index is backed (heap or v2 snapshot; mapped
// bytes); read it with Index.StorageInfo.
type StorageInfo = flix.StorageInfo

// OpenSnapshot opens a v2 snapshot file (written with
// Index.WriteSnapshotV2) memory-mapped against its collection; queries are
// served straight from the mapping with no parse step.  Call Index.Close
// when done.
func OpenSnapshot(c *Collection, path string) (*Index, error) { return flix.OpenSnapshot(c, path) }

// OpenSnapshotWith is OpenSnapshot with explicit options.
func OpenSnapshotWith(c *Collection, path string, opts OpenOptions) (*Index, error) {
	return flix.OpenSnapshotWith(c, path, opts)
}

// OpenSnapshotBytes opens a v2 snapshot from an in-memory image.
func OpenSnapshotBytes(c *Collection, data []byte) (*Index, error) {
	return flix.OpenSnapshotBytes(c, data)
}

// ErrSnapshotVersion reports a persisted index written by a newer snapshot
// format version than this binary understands, or by version 2 or 3 (a
// CRC-64 footer it no longer checks, or HOPI sections in a raw codec it no
// longer reads); OpenSnapshot fails with it instead of misreading the
// bytes.
var ErrSnapshotVersion = flix.ErrSnapshotVersion

// ErrSnapshotCorrupt reports a v2 snapshot that failed structural
// validation or its whole-file checksum; OpenSnapshot fails with it on
// truncations, bit flips, forged offsets and files of any other format
// (the canonical stream Index.WriteTo emits included) — never a panic.
var ErrSnapshotCorrupt = flix.ErrSnapshotCorrupt

// ParseQuery parses a path expression such as //~movie//actor or
// /dblp/article[text~"XML"].
func ParseQuery(expr string) (*Query, error) { return query.Parse(expr) }

// NewOntology returns an empty tag-similarity ontology.
func NewOntology() *Ontology { return ontology.New() }

// ParseOntology loads an ontology from "tagA tagB score" lines.
func ParseOntology(text string) (*Ontology, error) { return ontology.Parse(text) }

// NewTrace returns a tracer for one query evaluation.  eventLimit caps the
// raw event list (0 = the default); aggregate counters and per-meta-document
// summaries stay exact past the cap.
func NewTrace(eventLimit int) *Trace { return obs.NewTrace(eventLimit) }
