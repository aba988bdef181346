package flix

import (
	"fmt"

	"repro/internal/pathindex"
	"repro/internal/xmlgraph"
)

// frontier is the priority queue IE of the Path Expression Evaluator: a
// monotone bucket queue over (dist, node).  Figure 4 orders its queue by
// link-hop distance, so keys are small non-negative integers, and popping an
// entry at distance d only ever queues entries at nd = d + dist(e, l) + 1 > d
// (results buffered while popping d land at d + ld >= d, in a queue of their
// own whose pops trail the frontier's).  Nothing therefore arrives at or
// below a distance once the queue has started popping it, and a heap's
// sifting buys nothing:
//
//   - push appends the node to the bucket of its distance;
//   - the first pop at a distance sorts that bucket by node, once, and pop
//     walks it.  The pop order is exactly (dist, node) ascending — the order
//     a min-heap over the same entries pops, duplicates included — which
//     frontier_test.go holds against the frozen 4-ary heap.
//
// The evaluator never pushes an entry equal to one queued before: every push
// goes through evalScratch.queue, which queues a node only when it gets
// closer.  A node can still sit in the queue twice, at two distances, when a
// nearer path to it turns up before its farther copy popped; admit drops the
// farther one when it pops.
//
// The invariant — no push at or below the distance of the latest pop — is
// checked on every push; breaking it is an evaluator bug and panics.  The
// only pushes not above a popped distance are the seeds, which all arrive
// before the first pop.
//
// The evaluator's (dist, node) result buffer (Options.ExactOrder and Probe)
// is a second frontier.
//
// Memory: 4 bytes per queued entry plus one slice header per distance up to
// the largest one pushed — distances seen, never the collection's size.
// Distances the evaluator computes are lengths of paths it walked; the one
// distance that arrives from outside, a PartialDescendants seed, is bounded
// by the element count before it gets here.  The buckets live in the pooled
// evalScratch and keep their capacity across reset, so a warm queue performs
// no allocation at all.
type frontier struct {
	b     [][]xmlgraph.NodeID // b[d] holds the nodes queued at distance d
	n     int                 // queued entries
	cur   int32               // every bucket below cur is empty
	pos   int                 // b[cur][:pos] is popped already; nonzero only while cur == floor-1
	floor int32               // lowest distance a push may have: that of the latest pop, plus one
	tmp   []xmlgraph.NodeID   // sortBucket's second buffer
}

// Len returns the number of queued entries.
func (f *frontier) Len() int { return f.n }

// reset empties the queue, retaining the buckets and their capacity.  The
// cost follows what is still queued: a drained queue resets in O(1).
func (f *frontier) reset() {
	f.n += f.pos // the popped prefix of a bucket left half-walked
	for d := f.cur; f.n > 0; d++ {
		f.n -= len(f.b[d])
		f.b[d] = f.b[d][:0]
	}
	*f = frontier{b: f.b, tmp: f.tmp}
}

// push queues one entry.  Its distance must exceed that of the latest pop.
func (f *frontier) push(it pqItem) {
	d := it.dist
	if d < f.floor {
		panic(fmt.Sprintf("flix: frontier push at distance %d after a pop at %d", d, f.floor-1))
	}
	for int(d) >= len(f.b) {
		f.b = append(f.b, nil)
	}
	f.b[d] = append(f.b[d], it.node)
	if f.n == 0 || d < f.cur {
		f.cur = d
	}
	f.n++
}

// minDist returns the distance of the entry pop would return.  The queue
// must not be empty.
func (f *frontier) minDist() int32 {
	for len(f.b[f.cur]) == 0 {
		f.cur++
	}
	return f.cur
}

// pop removes and returns the (dist, node)-minimum entry.  The queue must
// not be empty.
func (f *frontier) pop() pqItem {
	d := f.minDist()
	b := f.b[d]
	if d >= f.floor {
		// First pop at this distance.  No push can reach the bucket any
		// more, so this one sort fixes the order of all of it.
		f.sortBucket(b)
		f.floor = d + 1
	}
	it := pqItem{dist: d, node: b[f.pos]}
	f.n--
	if f.pos++; f.pos == len(b) {
		f.b[d], f.pos = b[:0], 0
	}
	return it
}

// sortBucket sorts a bucket by node with the serving path's one (dist,
// node) sort: a bucket is one distance, so its node IDs are the keys.
// Insertion below pathindex.RadixCutoff, an LSD radix sort above it that
// passes only over the bytes the IDs differ in — two or three for one
// collection.  (The generic slices.Sort was a quarter of evalRun.run here:
// bucket after bucket of a few dozen to a few hundred IDs, half of them
// duplicates.)
func (f *frontier) sortBucket(b []xmlgraph.NodeID) { pathindex.SortDistNode(b, &f.tmp) }

// flushThrough pops every buffered result with distance <= bound into emit, in
// (dist, node) order.  It reports false when the emit callback cancels; the
// rest stays buffered.
func (f *frontier) flushThrough(bound int32, emit func(Result) bool) bool {
	for f.n > 0 && f.minDist() <= bound {
		it := f.pop()
		if !emit(Result{Node: it.node, Dist: it.dist}) {
			return false
		}
	}
	return true
}
