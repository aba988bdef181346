package flix

import (
	"repro/internal/xmlgraph"
)

// evalScratch is the working state of one evaluation, pooled on the Index so
// that a warm query performs no allocation: the evaluator core, the frontier's
// buckets, the duplicate-elimination tables, the result and hop buffers,
// and the bound visit/emit/link callbacks are all checked out
// together and returned — reset — on every exit path, including cancellation
// and emit-stop.  A driver holds a scratch for one call (the bidirectional
// connection test two, one per direction); a Probe holds one from StartProbe
// to Close.
type evalScratch struct {
	run evalRun
	f   frontier

	// entered lists the visited entry points per meta document (the coverage
	// rule, on either axis).
	entered enteredTable

	// Identity-rule tables, allocated on the first evaluation that needs
	// them and then cleared — not reallocated — between uses.  best maps a
	// node to the smallest distance queued for it, or to expanded once its
	// entry was admitted.  resAt marks reported result nodes; the merge
	// sink stores each node's position in merged there.
	best  map[xmlgraph.NodeID]int32
	resAt map[xmlgraph.NodeID]int32

	// rbuf is the (dist, node) result queue of the buffered sinks; merged is
	// the merge sink's append buffer, sorted once at the end.
	rbuf   frontier
	merged []pqItem
	// hops collects the frontier entries PartialDescendants found in foreign
	// meta documents; superseded ones are filtered against best at the end.
	hops []pqItem

	// visitFn, emitFn and linkFn are method values bound once to &run, so
	// every index probe and link sweep gets the same func value with no
	// per-entry allocation.
	visitFn func(n, ld int32) bool
	emitFn  func(Result) bool
	linkFn  func(i int, d int32) bool
}

// enteredTable maps a meta document to the entry points admitted in it.  It
// is sparse — a small open-addressing hash over the meta documents actually
// entered, each with a reusable list — so its size and the cost of resetting
// it follow the work the evaluation did, never the number of meta documents
// in the collection: a ranked query holds thousands of paused probes at once,
// each with a scratch of its own, and most of them enter a handful of meta
// documents.
type enteredTable struct {
	slots []enteredSlot // linear probing; len is 0 or a power of two, at most half full
	gen   uint32        // a slot is occupied iff it carries this stamp, so reset is one increment
	lists [][]int32     // lists[:n] are in use, one per meta document entered
	n     int
}

type enteredSlot struct {
	gen      uint32
	mi, list int32
}

// find returns the position of mi's slot, or of the empty one where it goes.
func (t *enteredTable) find(mi int32) int {
	mask := len(t.slots) - 1
	i := int(uint32(mi)*0x9E3779B1>>8) & mask
	for t.slots[i].gen == t.gen && t.slots[i].mi != mi {
		i = (i + 1) & mask
	}
	return i
}

// at returns the entry-point list of meta document mi, empty at its first
// visit.  The pointer is good until the next call.
func (t *enteredTable) at(mi int32) *[]int32 {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]enteredSlot, max(8, 2*len(old)))
		t.gen = max(t.gen, 1) // fresh slots carry stamp 0
		for _, sl := range old {
			if sl.gen == t.gen {
				t.slots[t.find(sl.mi)] = sl
			}
		}
	}
	sl := &t.slots[t.find(mi)]
	if sl.gen != t.gen {
		if t.n == len(t.lists) {
			t.lists = append(t.lists, nil)
		}
		*sl = enteredSlot{gen: t.gen, mi: mi, list: int32(t.n)}
		t.n++
	}
	return &t.lists[sl.list]
}

// reset empties the table, keeping the slots and the lists' capacity.
func (t *enteredTable) reset() {
	for i := range t.lists[:t.n] {
		t.lists[i] = t.lists[i][:0]
	}
	t.n = 0
	if t.gen++; t.gen == 0 { // stamp wrapped: old slots would read as occupied
		clear(t.slots)
		t.gen = 1
	}
}

// relax records d as the best known distance of n; it reports false when an
// equal or shorter one is already queued or expanded.
func (s *evalScratch) relax(n xmlgraph.NodeID, d int32) bool {
	if b, seen := s.best[n]; seen && b <= d {
		return false
	}
	s.best[n] = d
	return true
}

// getScratch checks a scratch out of the index's pool, allocating it on
// first use.  The pool is per-Index, so a live generation swap
// is naturally safe: queries pinned to the old generation keep draining its
// pool while the new generation starts a fresh one, and the old pool is
// collected with the index.
func (ix *Index) getScratch() *evalScratch {
	s, _ := ix.scratch.Get().(*evalScratch)
	if s == nil {
		s = &evalScratch{}
		s.run.s = s
		s.visitFn = s.run.visit
		s.emitFn = s.run.emit
		s.linkFn = s.run.linkVisit
	}
	return s
}

// putScratch resets the scratch and returns it to the pool.  Reset drops
// every reference a query threaded through it (caller callbacks, tracer,
// per-pop index handles) so the pool never pins client state, and empties
// the containers while keeping their capacity.
func (ix *Index) putScratch(s *evalScratch) {
	s.f.reset()
	s.entered.reset()
	s.rbuf.reset()
	s.merged = s.merged[:0]
	s.hops = s.hops[:0]
	if s.run.opts.DupSeenSet {
		clear(s.best)
		clear(s.resAt)
	}
	s.run = evalRun{s: s}
	ix.scratch.Put(s)
}
