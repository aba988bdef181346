package flix

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/obs"
	"repro/internal/pathindex"
	"repro/internal/xmlgraph"
)

// This file is the shard-side half of the scatter-gather serving tier
// (internal/shard): a *partial* driver of the evaluator core that expands a
// batch of frontier entries only within an owned subset of the meta
// documents and hands everything that crosses into foreign meta documents
// back to the caller.  The router replays Figure 4's priority-queue loop one
// level up, re-dispatching the returned hops to the shards that own them.
//
// Unlike the single-node drivers, the partial one runs the core under the
// identity rule with minimum distances (a lazy-deletion Dijkstra) instead of
// the §5.1 entry-point coverage scheme.  Coverage pruning is only sound when
// one evaluation sees every entry of a meta document; split across RPC
// rounds it would suppress shorter rediscoveries.  The identity scheme costs
// more frontier work but makes the distributed composition exact: local
// distances within a meta document are exact shortest paths, every boundary
// crossing is surfaced as a hop, and the router keeps the minimum distance
// per node — so the merged stream carries true shortest distances, not the
// single-node upper bounds.

// FrontierEntry is one (node, distance) pair of the distributed frontier —
// the wire unit of the shard protocol: query starts, returned results, and
// cross-shard hops all take this shape.
type FrontierEntry struct {
	Node xmlgraph.NodeID `json:"node"`
	Dist int32           `json:"dist"`
}

// PartialOptions tunes one partial evaluation.
type PartialOptions struct {
	// MaxDist prunes paths longer than this many edges (0 = unlimited).
	MaxDist int32
	// Owned reports whether this evaluator owns a meta document.  Entries
	// landing in un-owned meta documents are returned as hops instead of
	// being expanded.  Nil means everything is owned (single-shard mode).
	Owned func(meta int32) bool
	// MaxResults, when positive, is the caller's top-k need: the result is
	// the MaxResults-prefix of the unlimited call's Results, and the
	// evaluation stops at the first distance band that holds that many —
	// Hops then carries the unlimited call's hops up to that band only.
	// What is left out lies strictly behind MaxResults returned results, so
	// this is an exact stop, not a Truncated one.
	MaxResults int
	// Cancel aborts the evaluation when closed; the partial result is then
	// marked Truncated because un-expanded frontier work was dropped.
	Cancel <-chan struct{}
	// Tracer receives the same span events as the single-node evaluator.
	Tracer *obs.Trace
}

// PartialResult is the outcome of one partial evaluation.
type PartialResult struct {
	// Results are the matching elements found in owned meta documents, with
	// the minimum distance over all expanded entries, sorted by
	// (dist, node).  A result at distance 0 (the start itself) is included
	// when the tag matches; the router applies the include-self policy.
	Results []FrontierEntry
	// Hops are the frontier entries that landed in foreign meta documents,
	// minimum distance per node, sorted by (dist, node).  The caller owns
	// routing them to the shards that own them.
	Hops []FrontierEntry
	// Pops, Entries and LinkHops mirror the QueryStats counters for this
	// evaluation.
	Pops, Entries, LinkHops int64
	// Truncated reports that the evaluation was cancelled before the local
	// frontier drained; Results/Hops are then a sound but incomplete subset.
	Truncated bool
}

// PartialDescendants expands the given frontier entries within the owned
// meta documents, evaluating start//tag locally (empty tag = wildcard) and
// collecting boundary crossings as hops.  Entries already landing in foreign
// meta documents are returned as hops unexpanded, so a caller with a stale
// ownership view degrades gracefully instead of computing wrong answers.
// An entry naming a node outside the collection is an error, and so is one
// farther than its element count: no path is, and it would size the frontier.
func (ix *Index) PartialDescendants(entries []FrontierEntry, tag string, opts PartialOptions) (PartialResult, error) {
	s := ix.getScratch()
	r := ix.arm(s, tag, Options{
		MaxDist:     opts.MaxDist,
		IncludeSelf: true, // the router applies the include-self policy
		DupSeenSet:  true,
		Cancel:      opts.Cancel,
		Tracer:      opts.Tracer,
	})
	r.merge, r.owned = true, opts.Owned
	first := int32(math.MaxInt32) // smallest seeded distance
	elements := len(ix.set.MetaOf)
	for _, e := range entries {
		if e.Node < 0 || int(e.Node) >= elements || int(e.Dist) > elements {
			ix.putScratch(s)
			return PartialResult{}, fmt.Errorf("flix: frontier entry (node %d, distance %d) outside a collection of %d elements", e.Node, e.Dist, elements)
		}
		if e.Dist < 0 || (opts.MaxDist > 0 && e.Dist > opts.MaxDist) {
			continue
		}
		if s.queue(e.Node, e.Dist) {
			first = min(first, e.Dist)
		}
	}
	// Past the validation every exit, a panicking index probe included,
	// flushes the counters and returns the scratch clean.
	defer ix.finish(s)

	// band is the distance through which the merged results and the hops
	// are final.  Without a limit that is everything: one run drains the
	// frontier.  With one, the frontier advances in Probe's exponential
	// bands from the batch's smallest distance, and the first band b that
	// holds MaxResults results ends the evaluation: whatever is still
	// queued, and every hop beyond b, can only produce results at a
	// distance above b — behind MaxResults results that are already final,
	// because an entry popped later than b never lowers a distance to b or
	// below.  (Every frontier entry is within MaxDist, so the band clamped
	// to MaxDist drains the frontier and the loop ends.)
	band := int32(math.MaxInt32)
	if opts.MaxResults <= 0 {
		r.run(band)
	} else {
		for band = first; ; band = NextBand(band, opts.MaxDist) {
			r.run(band)
			if s.f.Len() == 0 {
				band = math.MaxInt32 // drained (or cancelled): nothing was left out
				break
			}
			if countWithin(s.merged, band) >= opts.MaxResults {
				break
			}
		}
	}

	// Only what can be returned is packed and sorted: the results within
	// the band, and the hops within it that no later relaxation of their
	// node beat.
	keys := s.keys[:0]
	for _, it := range s.merged {
		if it.dist <= band {
			keys = append(keys, pathindex.PackDistNode(it.dist, int32(it.node)))
		}
	}
	results := s.wireEntries(keys, opts.MaxResults)
	keys = keys[:0]
	for _, h := range s.hops {
		if b, _ := s.best.Get(h.node); h.dist <= band && b == h.dist {
			keys = append(keys, pathindex.PackDistNode(h.dist, int32(h.node)))
		}
	}
	out := PartialResult{
		Results:   results,
		Hops:      s.wireEntries(keys, 0),
		Pops:      r.pops,
		Entries:   r.entries,
		LinkHops:  r.linkHops,
		Truncated: r.truncated,
	}
	r.emitted = len(out.Results)
	return out, nil
}

// countWithin counts the entries of buf at distance band or below.
func countWithin(buf []pqItem, band int32) int {
	n := 0
	for _, it := range buf {
		if it.dist <= band {
			n++
		}
	}
	return n
}

// wireEntries sorts keys, which it keeps as the scratch's key buffer, and
// copies them — the first limit when limit is positive — out in the wire
// type.
func (s *evalScratch) wireEntries(keys []pathindex.DistNode, limit int) []FrontierEntry {
	s.keys = keys
	if len(keys) == 0 {
		return nil
	}
	pathindex.SortDistNode(keys, &s.ktmp)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	out := make([]FrontierEntry, len(keys))
	for i, k := range keys {
		out[i] = FrontierEntry{Node: xmlgraph.NodeID(k.Node()), Dist: k.Dist()}
	}
	return out
}

// MetaOf returns the meta document owning node n.
func (ix *Index) MetaOf(n xmlgraph.NodeID) int32 { return ix.set.MetaOf[n] }

// Fingerprint is the index's decomposition as Fingerprint formats it.
func (ix *Index) Fingerprint() string { return Fingerprint(ix.set.MetaOf, len(ix.set.Metas)) }

// Fingerprint identifies a meta-document decomposition by its assignment
// metaOf over metas meta documents: the 16 hex digits of an FNV-64a hash of
// the count and then every node's meta document, each as 4 little-endian
// bytes.  Every shard of a cluster must agree on it: the consistent-hash
// ring routes meta IDs, so two shards with different partitionings would
// silently mis-route hops.  Shards announce it and the router, which derives
// its own assignment with Assign, refuses what does not match.
func Fingerprint(metaOf []int32, metas int) string {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v int32) {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf[:])
	}
	put(int32(metas))
	for _, mi := range metaOf {
		put(mi)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
