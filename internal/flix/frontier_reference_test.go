package flix

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xmlgraph"
)

// frontier4 is the frozen reference for the bucket queue of frontier.go: the
// 4-ary min-heap that was the evaluator's priority queue IE until the commit
// after 2da5dbc, kept as it was so the property tests and FuzzFrontierMonotone
// can hold the new queue to its pop order.  It is a general heap — it accepts
// any push at any time — so it also says what the bucket queue's order has to
// be on every monotone schedule.
//
// What follows is its original description.
//
// frontier4 is the priority queue IE of the Path Expression Evaluator: a
// 4-ary min-heap over (dist, node), concretely typed so that pushes and pops
// move pqItem values directly instead of boxing them through container/heap's
// `any` interface.  A 4-ary layout halves the tree height of a binary heap;
// sift-down compares up to four children per level, which trades a few
// comparisons for far fewer cache-missing levels — the classic d-ary heap
// result, and measurably faster on the link-heavy frontiers where pops
// dominate serving latency.
//
// The evaluator's (dist, node) result buffer (Options.ExactOrder and Probe) is
// a second frontier4: same items, same order.
//
// The backing array lives in the evalScratch pool, so a warm heap performs
// no allocation at all: push appends into retained capacity, pop reslices.
// The pop order is exactly the order container/heap produced over the same
// items — both remove the (dist, node)-minimum of the current contents —
// which frontier_test.go pins with a property test.
type frontier4 struct {
	a []pqItem
}

// pqLess orders frontier entries by (dist, node) — the tie-break the
// evaluator's approximate distance ordering relies on.
func pqLess(x, y pqItem) bool {
	if x.dist != y.dist {
		return x.dist < y.dist
	}
	return x.node < y.node
}

// Len returns the number of queued entries.
func (f *frontier4) Len() int { return len(f.a) }

// reset empties the heap, retaining the backing array.
func (f *frontier4) reset() { f.a = f.a[:0] }

// grow ensures capacity for n more entries before a bulk load.
func (f *frontier4) grow(n int) {
	if need := len(f.a) + n; need > cap(f.a) {
		a := make([]pqItem, len(f.a), need)
		copy(a, f.a)
		f.a = a
	}
}

// push inserts one entry.  A push into an empty heap — the single-start
// Descendants case — is a plain append with no sifting.
func (f *frontier4) push(it pqItem) {
	f.a = append(f.a, it)
	f.siftUp(len(f.a) - 1)
}

// heapify establishes the heap property over a bulk-appended backing array
// in O(n) — the multi-start TypeDescendants load.
func (f *frontier4) heapify() {
	if len(f.a) < 2 {
		return // Go truncates (0-2)/4 to 0, which would sift an empty heap
	}
	for i := (len(f.a) - 2) / 4; i >= 0; i-- {
		f.siftDown(i)
	}
}

func (f *frontier4) siftUp(i int) {
	a := f.a
	it := a[i]
	for i > 0 {
		p := (i - 1) / 4
		if !pqLess(it, a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = it
}

func (f *frontier4) siftDown(i int) {
	a := f.a
	n := len(a)
	it := a[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if pqLess(a[c], a[best]) {
				best = c
			}
		}
		if !pqLess(a[best], it) {
			break
		}
		a[i] = a[best]
		i = best
	}
	a[i] = it
}

// pop removes and returns the (dist, node)-minimum entry.
func (f *frontier4) pop() pqItem {
	a := f.a
	min := a[0]
	last := len(a) - 1
	a[0] = a[last]
	f.a = a[:last]
	if last > 0 {
		f.siftDown(0)
	}
	return min
}

// flushThrough pops every buffered result with distance <= bound into emit, in
// (dist, node) order.  It reports false when the emit callback cancels; the
// rest stays buffered.
func (f *frontier4) flushThrough(bound int32, emit func(Result) bool) bool {
	for f.Len() > 0 && f.a[0].dist <= bound {
		it := f.pop()
		if !emit(Result{Node: it.node, Dist: it.dist}) {
			return false
		}
	}
	return true
}

// popAll drains a frontier4 into a slice.
func popAll(f *frontier4) []pqItem {
	var out []pqItem
	for f.Len() > 0 {
		out = append(out, f.pop())
	}
	return out
}

// refPopAll drains the container/heap reference frontier.
func refPopAll(rf *refFrontier) []pqItem {
	var out []pqItem
	for rf.Len() > 0 {
		out = append(out, heap.Pop(rf).(pqItem))
	}
	return out
}

// TestFrontier4MatchesContainerHeap is the pop-order property test: for any
// input sequence, frontier4 pops exactly the values container/heap pops.
// Both heaps remove the (dist, node)-minimum, so even with duplicate
// priorities the popped value sequences must be identical.
func TestFrontier4MatchesContainerHeap(t *testing.T) {
	check := func(dists []int32, nodes []int32, bulk bool) bool {
		n := len(dists)
		if len(nodes) < n {
			n = len(nodes)
		}
		var f frontier4
		var rf refFrontier
		items := make([]pqItem, 0, n)
		for i := 0; i < n; i++ {
			items = append(items, pqItem{dist: dists[i], node: xmlgraph.NodeID(nodes[i])})
		}
		if bulk {
			// Bulk construction: append then heapify, the
			// TypeDescendants path.
			f.grow(len(items))
			f.a = append(f.a, items...)
			f.heapify()
		} else {
			for _, it := range items {
				f.push(it)
			}
		}
		for _, it := range items {
			heap.Push(&rf, it)
		}
		got, want := popAll(&f), refPopAll(&rf)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFrontier4TieHeavy forces massive priority collisions: distances drawn
// from {0,1,2} and node IDs from an 8-value domain, so nearly every pop has
// to break ties.  The pop sequences must still match container/heap exactly.
func TestFrontier4TieHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		n := rng.Intn(64)
		var f frontier4
		var rf refFrontier
		for i := 0; i < n; i++ {
			it := pqItem{dist: int32(rng.Intn(3)), node: xmlgraph.NodeID(rng.Intn(8))}
			f.push(it)
			heap.Push(&rf, it)
		}
		got, want := popAll(&f), refPopAll(&rf)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: pop %d: got %+v want %+v", round, i, got[i], want[i])
			}
		}
	}
}

// TestFrontier4Interleaved mixes pushes and pops in random order, comparing
// every popped value against container/heap driven by the same operation
// sequence.
func TestFrontier4Interleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 100; round++ {
		var f frontier4
		var rf refFrontier
		for op := 0; op < 200; op++ {
			if rf.Len() == 0 || rng.Intn(3) != 0 {
				it := pqItem{dist: int32(rng.Intn(10)), node: xmlgraph.NodeID(rng.Intn(1000))}
				f.push(it)
				heap.Push(&rf, it)
				continue
			}
			got := f.pop()
			want := heap.Pop(&rf).(pqItem)
			if got != want {
				t.Fatalf("round %d op %d: got %+v want %+v", round, op, got, want)
			}
		}
	}
}

// TestFrontier4Reset checks that reset empties the heap but retains capacity
// (the property the scratch pool relies on).
func TestFrontier4Reset(t *testing.T) {
	var f frontier4
	for i := 0; i < 100; i++ {
		f.push(pqItem{dist: int32(100 - i), node: xmlgraph.NodeID(i)})
	}
	c := cap(f.a)
	f.reset()
	if f.Len() != 0 {
		t.Fatalf("Len after reset = %d, want 0", f.Len())
	}
	if cap(f.a) != c {
		t.Fatalf("cap after reset = %d, want %d", cap(f.a), c)
	}
	f.push(pqItem{dist: 2, node: 1})
	f.push(pqItem{dist: 1, node: 2})
	if got := f.pop(); got != (pqItem{dist: 1, node: 2}) {
		t.Fatalf("pop after reset = %+v", got)
	}
}
