package flix

import (
	"fmt"
	"sync/atomic"
)

// QueryStats aggregates query-load statistics, the input of the §7
// self-tuning loop: "if it turns out in the query evaluation engine that
// most queries have to follow many links, then the choice of meta documents
// is no longer optimal for the current query load".
//
// Counters are updated atomically by every evaluation, so an Index can be
// shared by concurrent readers while statistics accumulate.
type QueryStats struct {
	// Queries counts completed evaluations.
	Queries atomic.Int64
	// Pops counts priority-queue pops, dropped or not — the raw work the
	// evaluator performs.
	Pops atomic.Int64
	// Entries counts processed entry elements (priority-queue pops that
	// were not dropped by duplicate elimination).
	Entries atomic.Int64
	// DupDropped counts pops discarded by duplicate elimination.  A node is
	// queued only when it gets closer than every earlier copy, so what pops
	// and is dropped is either stale — the node was queued again nearer and
	// that copy popped first (both rules) — or, under the §5.1 coverage
	// rule, an element an earlier entry point of the same meta document
	// already covers.  A high DupDropped/Pops ratio means many runtime paths
	// converge on the same regions of a meta document — frontier work that
	// Entries alone under-reports on link-heavy loads.
	DupDropped atomic.Int64
	// LinkHops counts runtime link traversals: every link the follow step
	// walks, whether or not it queued its target — a target already queued
	// at that distance or nearer is not pushed again, so pushes are fewer.
	LinkHops atomic.Int64
	// Results counts emitted results.
	Results atomic.Int64
}

// flushQuery folds one finished evaluation's privately accumulated deltas
// into the shared counters; it is the only writer of the counters, called by
// Index.finish for every driver of the evaluator core.  The core batches
// per-pop increments in its evalRun and flushes once per query — with ~2k
// pops per serving query, per-pop atomic adds are a measurable cache-line
// ping-pong between concurrent queries.  Counters therefore lag in-flight
// queries by at most one query's worth of work, which Snapshot already
// documents as acceptable skew; completed-query counts are exact, which is
// what the swap-torture and concurrency tests assert.
func (s *QueryStats) flushQuery(r *evalRun) {
	if r.pops != 0 {
		s.Pops.Add(r.pops)
	}
	if r.entries != 0 {
		s.Entries.Add(r.entries)
	}
	if r.dupDropped != 0 {
		s.DupDropped.Add(r.dupDropped)
	}
	if r.linkHops != 0 {
		s.LinkHops.Add(r.linkHops)
	}
	s.Queries.Add(1)
	s.Results.Add(int64(r.emitted))
}

// Snapshot is an immutable copy of the counters.
type Snapshot struct {
	Queries, Pops, Entries, DupDropped, LinkHops, Results int64
}

// Snapshot returns a consistent-enough copy for reporting (individual
// counters are read atomically; cross-counter skew of in-flight queries is
// acceptable for tuning purposes).
func (s *QueryStats) Snapshot() Snapshot {
	return Snapshot{
		Queries:    s.Queries.Load(),
		Pops:       s.Pops.Load(),
		Entries:    s.Entries.Load(),
		DupDropped: s.DupDropped.Load(),
		LinkHops:   s.LinkHops.Load(),
		Results:    s.Results.Load(),
	}
}

// LinkHopsPerQuery returns the average number of runtime link traversals.
func (s Snapshot) LinkHopsPerQuery() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.LinkHops) / float64(s.Queries)
}

// EntriesPerQuery returns the average number of meta-document entries.
func (s Snapshot) EntriesPerQuery() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Entries) / float64(s.Queries)
}

// PopsPerQuery returns the average number of priority-queue pops.
func (s Snapshot) PopsPerQuery() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Pops) / float64(s.Queries)
}

// DupDropRatio returns the fraction of pops discarded by duplicate
// elimination — 0 when nothing was popped yet.
func (s Snapshot) DupDropRatio() float64 {
	if s.Pops == 0 {
		return 0
	}
	return float64(s.DupDropped) / float64(s.Pops)
}

// String renders the snapshot for logs.
func (s Snapshot) String() string {
	return fmt.Sprintf("queries=%d pops/q=%.1f entries/q=%.1f dupDrop=%.0f%% linkHops/q=%.1f results=%d",
		s.Queries, s.PopsPerQuery(), s.EntriesPerQuery(), 100*s.DupDropRatio(),
		s.LinkHopsPerQuery(), s.Results)
}

// Stats returns the index's live query statistics.
func (ix *Index) Stats() *QueryStats { return &ix.stats }

// Advice is the outcome of the self-tuning analysis.
type Advice struct {
	// Rebuild reports whether a reconfiguration looks worthwhile.
	Rebuild bool
	// Config is the suggested replacement configuration (meaningful only
	// when Rebuild is true).
	Config Config
	// Reason explains the recommendation.
	Reason string
}

// Advise implements the self-tuning heuristic sketched in §7: when the
// observed query load crosses many meta-document boundaries, the build
// phase "should start again, taking statistics on the query load into
// account" — here by enlarging the partitions (fewer, bigger meta
// documents) or, beyond that, falling back to a monolithic index.  The
// caller decides whether to act by rebuilding with the returned Config.
func (ix *Index) Advise() Advice {
	s := ix.stats.Snapshot()
	if s.Queries < 10 {
		return Advice{Reason: "not enough queries observed"}
	}
	hops := s.LinkHopsPerQuery()
	entries := s.EntriesPerQuery()
	// The duplicate-drop ratio is the second signal: Entries alone
	// under-reports wasted work on link-heavy loads where many runtime
	// paths converge on regions an earlier entry point already covered.
	// Link targets are queued only when they get closer, so an arrival at a
	// node already queued as near costs a table lookup, not a pop, and is
	// not in the ratio: what it counts is the pops that reach a meta
	// document only to find it covered (or that were overtaken by a nearer
	// copy).  Above one half, most of the frontier re-enters regions it has
	// already reported.  (Before the relax step every converging arrival
	// popped: the benchmark's DBLP descendants load read 0.89, now 0.42.)
	drop := s.DupDropRatio()
	dupHeavy := drop > 0.5 && s.PopsPerQuery() > 8
	cfg := ix.cfg
	switch {
	case entries <= 4 && hops <= 16 && !dupHeavy:
		return Advice{Reason: fmt.Sprintf(
			"load is local (%.1f entries/query, %.1f link hops/query, %.0f%% dup-dropped pops); configuration fits",
			entries, hops, 100*drop)}
	case cfg.Kind == Monolithic:
		return Advice{Reason: "already monolithic; nothing coarser to rebuild to"}
	case (cfg.Kind == UnconnectedHOPI || cfg.Kind == Hybrid) && cfg.PartitionSize < 1<<20:
		next := cfg
		next.PartitionSize = cfg.PartitionSize * 4
		reason := fmt.Sprintf(
			"%.1f link hops/query: enlarge partitions %d -> %d to keep queries inside one meta document",
			hops, cfg.PartitionSize, next.PartitionSize)
		if dupHeavy {
			reason = fmt.Sprintf(
				"%.0f%% of %.1f pops/query dropped as duplicates: enlarge partitions %d -> %d so converging link paths stay inside one meta document",
				100*drop, s.PopsPerQuery(), cfg.PartitionSize, next.PartitionSize)
		}
		return Advice{Rebuild: true, Config: next, Reason: reason}
	default:
		return Advice{
			Rebuild: true,
			Config:  Config{Kind: UnconnectedHOPI, PartitionSize: 20000, Load: cfg.Load},
			Reason: fmt.Sprintf(
				"%.1f link hops/query with %.1f entries/query: switch to size-bounded HOPI partitions", hops, entries),
		}
	}
}
