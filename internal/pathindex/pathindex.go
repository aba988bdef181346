// Package pathindex defines the contract every Path Indexing Strategy (PIS,
// FliX §3.2) fulfils, plus the strategy registry the Indexing Strategy
// Selector chooses from.
//
// An Index answers reachability, distance and "descendants by element name"
// queries over one meta document's local graph (an lgraph.LGraph).  All
// enumeration methods stream results through callbacks in ascending distance
// order (ties broken by node ID) — the order the Path Expression Evaluator
// relies on to produce approximately distance-ordered global results.
//
// Every Index also writes the canonical compact stream (io.WriterTo) that
// Table 1 measures; it is write-only.  What is persisted and reopened is the
// snapshot section a strategy encodes through storage.SectionEncoder.
package pathindex

import (
	"io"

	"repro/internal/lgraph"
	"repro/internal/storage"
)

// Visit receives one result node with its distance from the query node.
// Returning false stops the enumeration.  It aliases storage.Visit so an
// index implementation satisfies the storage-agnostic probe interface and
// this package's Index with the same method set.
type Visit = storage.Visit

// Index is a connection index over one local graph.
//
// The query surface — reachability, distance and the four enumeration
// probes — is storage.Probe, the storage-agnostic contract shared by
// heap-built indexes and mmap-backed snapshot views; see that interface
// for the semantics (descendants-or-self axis, ascending (dist, node)
// emission order, allocation-free steady state).  Index adds the strategy
// name and the canonical size stream on top.
type Index interface {
	// Name identifies the strategy (e.g. "ppo", "hopi", "apex").
	Name() string

	storage.Probe

	// WriteTo emits the canonical compact stream: its byte count is the
	// "index size" the experiments report (Table 1) and its bytes are
	// what the determinism tests compare.  Nothing reads it back —
	// persistence is storage.SectionEncoder's job.
	io.WriterTo
}

// LinkDistances probes one fixed element x against every runtime-link source
// of a meta document, in source order: fn receives the position of each
// source x reaches in sources together with its distance from x; returning
// false stops the sweep.  It is the evaluator's follow step for an index
// without a LinkTable.
func LinkDistances(idx Index, x int32, sources []int32, fn func(i int, d int32) bool) {
	for i, y := range sources {
		if d, ok := idx.Distance(x, y); ok {
			if !fn(i, d) {
				return
			}
		}
	}
}

// LinkTable accelerates LinkDistances for one FIXED source list.  A meta
// document's runtime-link sources never change after the build, so an
// index can prepare the source side of the distance test once — at table
// construction — and serve every later sweep from it.  PPO decodes the
// sources' preorder ranks and depths into plain arrays sorted by rank, so a
// sweep is a binary search for x's subtree interval instead of a test per
// source.
type LinkTable interface {
	// LinkDistancesTo calls fn(i, d) for every source i of the table's list
	// that x reaches, d being its distance from x — the hits of
	// LinkDistances(idx, x, sources, fn) — except the sources whose preorder
	// rank lies in a span of skip.  skip is ascending and disjoint; the
	// evaluator passes the regions of the earlier entry points nested in x's,
	// whose sources were swept already.  Hits arrive each once, in ascending
	// preorder rank, until fn returns false.
	LinkDistancesTo(x int32, skip []Span, fn func(i int, d int32) bool)
}

// LinkTabler is implemented by indexes that can precompute a LinkTable.
type LinkTabler interface {
	LinkTable(sources []int32) LinkTable
}

// NewLinkTable returns idx's precomputed table over sources, or nil when
// the list is empty or the index has no accelerated form — callers fall
// back to LinkDistances.
func NewLinkTable(idx Index, sources []int32) LinkTable {
	if len(sources) == 0 {
		return nil
	}
	if lt, ok := idx.(LinkTabler); ok {
		return lt.LinkTable(sources)
	}
	return nil
}

// Span is the half-open preorder interval [Lo, Hi).  Under region encoding
// an element's subtree is one span — its preorder rank and subtree size — so
// "x reaches y" is "x's span holds pre(y)".
type Span struct{ Lo, Hi int32 }

// Regioner is implemented by indexes that number their local graph by region
// encoding (PPO): x reaches y iff Region(x) holds Region(y).Lo.  It lets the
// evaluator keep a meta document's entry points as sorted spans and ranks,
// and test coverage with one binary search instead of a Reachable call per
// earlier entry point.
type Regioner interface {
	Region(x int32) Span
}

// Builder constructs an Index for a local graph.  Builders may fail, e.g.
// PPO refuses non-forest graphs.
type Builder func(g *lgraph.LGraph) (Index, error)

// Strategy pairs a strategy name with its builder and the structural
// constraints the Indexing Strategy Selector checks.
type Strategy struct {
	// Name is the registry key.
	Name string
	// Build constructs the index.
	Build Builder
	// RequiresForest marks strategies (PPO) that only work when the local
	// graph is a forest.
	RequiresForest bool
}
