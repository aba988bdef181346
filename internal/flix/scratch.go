package flix

import (
	"repro/internal/pathindex"
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
	// rule, on either axis); skip holds the regions the latest entry point
	// swallowed (evalRun.enter), and runs the ranges of link positions the
	// forward sweep walks (evalRun.follow).
	entered enteredTable
	skip    []pathindex.Span
	runs    []pathindex.Span

	// best maps every node ever queued to the smallest distance it was
	// queued at: queue pushes a node only when it gets closer (relax at
	// push), under either duplicate rule.  res is the identity rule's result
	// table — a mark per reported node, or for the merge sink the node's
	// position in merged.
	best, res NodeTable

	// rbuf is the (dist, node) result queue of the buffered sinks; merged is
	// the merge sink's append buffer, sorted once at the end.
	rbuf   frontier
	merged []pqItem
	// hops collects the frontier entries PartialDescendants found in foreign
	// meta documents; superseded ones are filtered against best at the end.
	hops []pqItem
	// keys and ktmp are the buffers of the (dist, node) sort: the partial
	// driver's wire entries and the cache's ExactOrder replay.
	keys, ktmp []pathindex.DistNode

	// visitFn, emitFn and linkFn are method values bound once to &run, so
	// every index probe and link sweep gets the same func value with no
	// per-entry allocation.
	visitFn func(n, ld int32) bool
	emitFn  func(Result) bool
	linkFn  func(i int, d int32) bool
}

// enteredTable maps a meta document to the entry points admitted in it, in
// the shape evalRun.enter keeps them (a local ID, a region or a rank).  It
// is sparse — a small open-addressing hash over the meta documents actually
// entered, each with a reusable list — so its size and the cost of resetting
// it follow the work the evaluation did, never the number of meta documents
// in the collection: a ranked query holds thousands of paused probes at once,
// each with a scratch of its own, and most of them enter a handful of meta
// documents.
type enteredTable struct {
	slots []enteredSlot      // linear probing; len is 0 or a power of two, at most half full
	gen   uint32             // a slot is occupied iff it carries this stamp, so reset is one increment
	lists [][]pathindex.Span // lists[:n] are in use, one per meta document entered
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
func (t *enteredTable) at(mi int32) *[]pathindex.Span {
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

// NodeTable maps node IDs to non-negative int32 values: the relax table's
// distances and the result table's marks and positions, here and in the
// router's gather (package shard).  Like enteredTable it is sparse, sized to
// what the evaluation touched rather than to the collection, and resets in
// O(1); a slot is 8 bytes, a node and its value, with the
// generation folded into the value: a value v is stored as floor+v, a slot is
// occupied iff what it holds is at least floor, and reset raises floor above
// everything stored since the last one.  A paused probe holds a table of its
// own, so its slots count against the memory of every open probe
// (TestRankedOpenProbeMemory).
type NodeTable struct {
	slots []nodeSlot // linear probing; len is 0 or a power of two, at most three quarters full
	floor uint32     // stored values below it are stale; at least 1 once slots exist, so zeroed slots read empty
	top   uint32     // the largest value stored since the slots were last cleared
	n     int        // occupied slots
}

type nodeSlot struct {
	node xmlgraph.NodeID
	val  uint32
}

// nodeTableMin is the slot count of a first table: 24 nodes before it grows,
// what a median paused ranked probe queues (TestRankedOpenProbeMemory).
const nodeTableMin = 32

// find returns the position of n's slot, or of the empty one where it goes.
func (t *NodeTable) find(n xmlgraph.NodeID) int {
	mask := len(t.slots) - 1
	h := uint32(n) * 0x9E3779B1
	i := int(h^h>>16) & mask
	for t.slots[i].val >= t.floor && t.slots[i].node != n {
		i = (i + 1) & mask
	}
	return i
}

// Get returns n's value; ok is false when n has none.
func (t *NodeTable) Get(n xmlgraph.NodeID) (v int32, ok bool) {
	if t.n == 0 {
		return 0, false
	}
	sl := &t.slots[t.find(n)]
	if sl.val < t.floor {
		return 0, false
	}
	return int32(sl.val - t.floor), true
}

// at returns n's slot, claiming an empty one when n has none (ok false), and
// otherwise its value.  The slot is good until the next at; set gives it a
// value.
func (t *NodeTable) at(n xmlgraph.NodeID) (sl *nodeSlot, v int32, ok bool) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	sl = &t.slots[t.find(n)]
	sl.node = n
	return sl, int32(sl.val - t.floor), sl.val >= t.floor
}

// set stores v >= 0 in a slot at returned.
func (t *NodeTable) set(sl *nodeSlot, v int32) {
	if sl.val < t.floor {
		t.n++
	}
	sl.val = t.floor + uint32(v)
	t.top = max(t.top, sl.val)
}

// Relax records d >= 0 as n's value and reports true when n has none yet or
// a larger one; an equal or smaller value stays and Relax reports false.
func (t *NodeTable) Relax(n xmlgraph.NodeID, d int32) bool {
	sl, b, ok := t.at(n)
	if ok && b <= d {
		return false
	}
	t.set(sl, d)
	return true
}

// grow doubles the slots (or makes the first ones) and rehashes the occupied
// ones; fresh slots hold 0, below every floor.
func (t *NodeTable) grow() {
	old := t.slots
	t.slots = make([]nodeSlot, max(nodeTableMin, 2*len(old)))
	t.floor = max(t.floor, 1)
	for _, sl := range old {
		if sl.val >= t.floor {
			t.slots[t.find(sl.node)] = sl
		}
	}
}

// LoadOrStore returns n's value and true when n has one; otherwise it
// stores v >= 0 as n's value and returns v and false.
func (t *NodeTable) LoadOrStore(n xmlgraph.NodeID, v int32) (actual int32, loaded bool) {
	sl, old, ok := t.at(n)
	if ok {
		return old, true
	}
	t.set(sl, v)
	return v, false
}

// Reset empties the table, keeping the slots.  Values are below 1<<31, so
// once floor passes 1<<31 the slots are cleared for real and floor starts
// over; until then floor+v cannot wrap.
func (t *NodeTable) Reset() {
	t.n = 0
	if t.floor = t.top + 1; t.floor > 1<<31 {
		clear(t.slots)
		t.floor, t.top = 1, 0
	}
}

// queue pushes n onto the frontier at distance d unless it is already queued
// at d or nearer, and reports whether it did.  Every push of the evaluator
// core goes through it — seeds and link targets, on both axes; the partial
// driver relaxes the link targets it hands back as hops the same way.
func (s *evalScratch) queue(n xmlgraph.NodeID, d int32) bool {
	if !s.best.Relax(n, d) {
		return false
	}
	s.f.push(pqItem{dist: d, node: n})
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
	s.skip = s.skip[:0]
	s.runs = s.runs[:0]
	s.rbuf.reset()
	s.best.Reset()
	s.res.Reset()
	s.merged = s.merged[:0]
	s.hops = s.hops[:0]
	s.keys = s.keys[:0]
	s.run = evalRun{s: s}
	ix.scratch.Put(s)
}
