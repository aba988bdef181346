package flix

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

// pop removes and returns the (dist, node)-minimum entry.  (Declared after
// siftDown, like flushThrough and for the same reason.)
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
// rest stays buffered.  (Declared after siftDown so that it does not move it:
// siftDown's loop runs 5 % slower at the other 32-byte offset — see ROADMAP.)
func (f *frontier4) flushThrough(bound int32, emit func(Result) bool) bool {
	for f.Len() > 0 && f.a[0].dist <= bound {
		it := f.pop()
		if !emit(Result{Node: it.node, Dist: it.dist}) {
			return false
		}
	}
	return true
}
