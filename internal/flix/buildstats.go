package flix

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/xmlgraph"
)

// BuildStats breaks the build phase (§4) into its timed components:
// partitioning the collection, flattening the parts into meta documents,
// selecting a strategy for each, and constructing the per-meta-document
// indexes.  flixd surfaces it
// via /statsz so operators can see where a rebuild spends its time.
//
// Partition and MetaBuild together are the decomposition, which generations
// over one collection and configuration share (Decompose): they report what
// this build or open spent on it — the full cost for the generation that
// computed it, zero for every one that found it.
type BuildStats struct {
	// Partition is the time the Meta Document Builder's partitioning
	// took.
	Partition time.Duration
	// MetaBuild is the time it took to flatten the partitioning into meta
	// documents: local numbering, local graphs and runtime link tables.
	MetaBuild time.Duration
	// Select is the summed time the Indexing Strategy Selector spent
	// across all meta documents.
	Select time.Duration
	// IndexBuild is the wall time of the (parallel) index construction.
	IndexBuild time.Duration
	// Parallelism is the worker-pool width the index build ran with.  An
	// index restored from disk reports 0 (nothing was built).
	Parallelism int
	// Workers reports each build worker's share of the construction, in
	// worker order.  Summed Busy over IndexBuild approximates the build's
	// effective parallel speedup.
	Workers []WorkerBuild
	// Strategies aggregates per-strategy construction effort.
	Strategies map[string]StrategyBuild
}

// WorkerBuild is one build worker's aggregate over the index construction.
type WorkerBuild struct {
	// Metas is the number of meta documents the worker built.
	Metas int
	// Busy is the time the worker spent selecting strategies and
	// building indexes (its wall time minus idle/steal time).
	Busy time.Duration
}

// StrategyBuild aggregates the index builds that used one strategy.
type StrategyBuild struct {
	// Metas is the number of meta documents built with the strategy.
	Metas int
	// Total is the summed build time across those meta documents.
	Total time.Duration
	// Max is the slowest single meta document build.
	Max time.Duration
}

// String renders the build statistics for logs.
func (b BuildStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "partition %s, meta build %s, select %s, index build %s",
		b.Partition.Round(time.Microsecond), b.MetaBuild.Round(time.Microsecond),
		b.Select.Round(time.Microsecond), b.IndexBuild.Round(time.Microsecond))
	if b.Parallelism > 0 {
		fmt.Fprintf(&sb, " (parallelism %d, %d workers)", b.Parallelism, len(b.Workers))
	}
	names := make([]string, 0, len(b.Strategies))
	for n := range b.Strategies {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := b.Strategies[n]
		fmt.Fprintf(&sb, " (%s: %d metas, %s total, %s max)",
			n, s.Metas, s.Total.Round(time.Microsecond), s.Max.Round(time.Microsecond))
	}
	return sb.String()
}

// BuildStats returns the build-phase timings recorded when the index was
// constructed.  An index restored from disk reports only what it spent on
// the decomposition (Partition, MetaBuild; zero when it found it).
func (ix *Index) BuildStats() BuildStats { return ix.bstats }

// StrategyAt returns the name of the indexing strategy serving the meta
// document that contains node n — the label the serving layer attaches to
// its per-strategy latency histograms.
func (ix *Index) StrategyAt(n xmlgraph.NodeID) string {
	if int(n) < 0 || int(n) >= len(ix.set.MetaOf) {
		return ""
	}
	return ix.pis[ix.set.MetaOf[n]].Name()
}
