package flix

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dblp"
	"repro/internal/xmlgraph"
)

// monotoneSchedule interprets script as a schedule of queue operations and
// runs it on the bucket queue and on the frozen 4-ary heap side by side,
// failing on the first difference in what they pop, hold or report as their
// minimum.  Every schedule it generates is monotone — a push lands above the
// distance of the latest pop, as the evaluator's do — and it covers what the
// drivers do with a queue:
//
//	push       a seed (before the first pop: any distance, in any order) or a
//	           discovery, node IDs from a small domain so ties and exact
//	           duplicates are the rule
//	load       many entries at one distance — TypeDescendants' multi-seed
//	           load, and buckets long enough for the radix sort
//	pop        one entry
//	run        evalRun.run: pop while the minimum is within a band, pushing
//	           link targets above each popped entry; then pause
//	flush      flushThrough with an emit that gives up after a few entries,
//	           possibly in the middle of a bucket
//	reset      return to the pool and reuse
func monotoneSchedule(t testing.TB, script []byte) {
	var (
		f     frontier
		h     frontier4
		floor int32 // lowest distance a monotone push may have
	)
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	push := func(it pqItem) {
		f.push(it)
		h.push(it)
	}
	pop := func(op string) pqItem {
		got, want := f.pop(), h.pop()
		if got != want {
			t.Fatalf("%s: popped %+v, the heap pops %+v", op, got, want)
		}
		floor = got.dist + 1
		return got
	}
	for step := 0; len(script) > 0; step++ {
		switch op := next() % 8; op {
		case 0, 1, 2:
			push(pqItem{dist: floor + int32(next()%7), node: xmlgraph.NodeID(next() % 12)})
		case 3:
			d, n, x := floor+int32(next()%4), next()*2, uint32(next())
			for i := 0; i < n; i++ {
				x = x*1664525 + 1013904223
				push(pqItem{dist: d, node: xmlgraph.NodeID(x >> 8 % 200000)})
			}
		case 4:
			if h.Len() > 0 {
				pop("pop")
			}
		case 5:
			band, fan := floor+int32(next()%5), next()%3
			for h.Len() > 0 && h.a[0].dist <= band {
				if f.Len() == 0 || f.minDist() > band {
					t.Fatalf("run: paused at band %d with the heap's minimum at %d", band, h.a[0].dist)
				}
				it := pop("run")
				for i := 0; i < fan; i++ {
					push(pqItem{dist: it.dist + 1 + int32((int(it.node)+i)%3), node: (it.node*7 + xmlgraph.NodeID(i)) % 12})
				}
			}
			if f.Len() > 0 && f.minDist() <= band {
				t.Fatalf("run: the heap is past band %d, the queue's minimum is %d", band, f.minDist())
			}
		case 6:
			bound, patience := floor+int32(next()%4)-1, next()%6
			var got, want []Result
			emitInto := func(out *[]Result) func(Result) bool {
				return func(r Result) bool {
					*out = append(*out, r)
					return len(*out) <= patience
				}
			}
			gotDone, wantDone := f.flushThrough(bound, emitInto(&got)), h.flushThrough(bound, emitInto(&want))
			if gotDone != wantDone || !slices.Equal(got, want) {
				t.Fatalf("flushThrough(%d): %v done=%v, the heap flushes %v done=%v", bound, got, gotDone, want, wantDone)
			}
			if len(got) > 0 {
				floor = got[len(got)-1].Dist + 1
			}
		case 7:
			f.reset()
			h.reset()
			floor = 0
		}
		if f.Len() != h.Len() {
			t.Fatalf("step %d: %d entries queued, the heap holds %d", step, f.Len(), h.Len())
		}
		if h.Len() > 0 && f.minDist() != h.a[0].dist {
			t.Fatalf("step %d: minimum distance %d, the heap's is %d", step, f.minDist(), h.a[0].dist)
		}
	}
	for h.Len() > 0 {
		pop("drain")
	}
	if f.Len() != 0 {
		t.Fatalf("%d entries left after the heap drained", f.Len())
	}
}

// TestFrontierMatchesHeap is the pop-order property test: on random monotone
// schedules the bucket queue pops exactly what the frozen 4-ary heap pops —
// (dist, node) ascending, exact duplicates adjacent and all of them.
func TestFrontierMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 200; round++ {
		script := make([]byte, 30+rng.Intn(600))
		rng.Read(script)
		monotoneSchedule(t, script)
	}
}

// FuzzFrontierMonotone lets the fuzzer write the schedule.
func FuzzFrontierMonotone(f *testing.F) {
	f.Add([]byte{0, 3, 5, 0, 0, 5, 4, 4, 4})                         // seeds out of order, then pops
	f.Add([]byte{3, 0, 90, 7, 3, 1, 40, 9, 5, 4, 2, 6, 3, 2})        // two loads, a run, a flush that stops
	f.Add([]byte{0, 2, 1, 5, 1, 1, 7, 0, 0, 3, 4, 6, 0, 0, 5, 9, 2}) // reset between two evaluations
	f.Add([]byte{3, 2, 255, 1, 6, 1, 3, 6, 1, 5, 4})                 // a flush that stops mid-bucket, resumed
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2000 {
			t.Skip("long schedules only repeat short ones")
		}
		monotoneSchedule(t, script)
	})
}

// TestFrontierInvariant states the monotonicity the queue relies on: before
// the first pop a seed may land anywhere, afterwards a push at or below the
// distance of the latest pop is a bug the queue refuses loudly — including
// into the bucket it is walking and into one it has finished.
func TestFrontierInvariant(t *testing.T) {
	mustPanic := func(name string, f *frontier, it pqItem) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "frontier push at distance") {
				t.Errorf("%s: push %+v after a pop at %d: recovered %q, want the invariant's panic", name, it, f.floor-1, msg)
			}
		}()
		f.push(it)
	}
	var f frontier // the zero value is ready
	for _, it := range []pqItem{{dist: 5, node: 1}, {dist: 2, node: 9}, {dist: 2, node: 3}, {dist: 0, node: 4}} {
		f.push(it)
	}
	if got := f.pop(); got != (pqItem{dist: 0, node: 4}) {
		t.Fatalf("first pop = %+v", got)
	}
	mustPanic("finished bucket", &f, pqItem{dist: 0, node: 1})
	f.push(pqItem{dist: 1, node: 7}) // above the latest pop, below the next bucket
	if got := f.pop(); got != (pqItem{dist: 1, node: 7}) {
		t.Fatalf("second pop = %+v", got)
	}
	if got := f.pop(); got != (pqItem{dist: 2, node: 3}) {
		t.Fatalf("third pop = %+v", got)
	}
	mustPanic("bucket being walked", &f, pqItem{dist: 2, node: 1})
	mustPanic("below it", &f, pqItem{dist: 1, node: 1})
	if f.Len() != 2 {
		t.Fatalf("refused pushes changed the queue: %d entries, want 2", f.Len())
	}
	f.reset()
	f.push(pqItem{dist: 0, node: 2}) // a reset queue takes seeds again
	if got := f.pop(); got != (pqItem{dist: 0, node: 2}) || f.Len() != 0 {
		t.Fatalf("pop after reset = %+v, %d left", got, f.Len())
	}
}

// TestFrontierReset checks what the scratch pool relies on: reset empties the
// queue wherever it stopped — drained, paused between buckets, or halfway
// through one — and keeps every bucket's capacity, so the next evaluation
// allocates nothing.
func TestFrontierReset(t *testing.T) {
	var f frontier
	load := func() {
		for i := 0; i < 300; i++ {
			f.push(pqItem{dist: int32(i % 10), node: xmlgraph.NodeID(1000 - i)})
		}
	}
	load()
	f.reset() // warm: buckets and the sort buffer sized
	for _, pops := range []int{0, 30, 45, 300} {
		load()
		for i := 0; i < pops; i++ {
			f.pop()
		}
		f.reset()
		if f.Len() != 0 {
			t.Fatalf("after %d pops: Len after reset = %d", pops, f.Len())
		}
		for d, b := range f.b {
			if len(b) != 0 {
				t.Fatalf("after %d pops: bucket %d holds %d entries after reset", pops, d, len(b))
			}
		}
	}
	if avg := testing.AllocsPerRun(20, func() {
		load()
		for f.Len() > 0 {
			f.pop()
		}
		f.reset()
	}); avg != 0 {
		t.Errorf("a warm queue allocated %.1f times per load-and-drain", avg)
	}
}

// TestFrontierSortBucket holds the bucket sort to slices.Sort on both sides
// of the cutoff, on IDs that differ in one byte only, in all four, and in
// sign.
func TestFrontierSortBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var f frontier
	for _, n := range []int{0, 1, 2, radixCutoff, radixCutoff + 1, 200, 3000} {
		for name, draw := range map[string]func() xmlgraph.NodeID{
			"one byte":   func() xmlgraph.NodeID { return 70000 + xmlgraph.NodeID(rng.Intn(256)) },
			"high byte":  func() xmlgraph.NodeID { return xmlgraph.NodeID(rng.Intn(100)) << 24 },
			"collection": func() xmlgraph.NodeID { return xmlgraph.NodeID(rng.Intn(171001)) },
			"any int32":  func() xmlgraph.NodeID { return xmlgraph.NodeID(rng.Uint32()) },
			"duplicates": func() xmlgraph.NodeID { return xmlgraph.NodeID(rng.Intn(7)) * 4099 },
		} {
			b := make([]xmlgraph.NodeID, n)
			for i := range b {
				b[i] = draw()
			}
			want := slices.Clone(b)
			slices.Sort(want)
			f.sortBucket(b)
			if !slices.Equal(b, want) {
				t.Fatalf("%d IDs, %s: sortBucket and slices.Sort disagree", n, name)
			}
		}
	}
}

// retained returns the bytes a queue keeps allocated: bucket headers, bucket
// arrays and the sort buffer.
func (f *frontier) retained() int {
	n := 24*cap(f.b) + 4*cap(f.tmp)
	for _, b := range f.b[:cap(f.b)] {
		n += 4 * cap(b)
	}
	return n
}

// TestFrontierRetainedCapacity bounds what a pooled scratch keeps after the
// widest query of the benchmark corpus, the hub publication's wildcard under
// ExactOrder (3 656 pops, 16 114 results, distances to 25): no more than
// twice what the heap's arrays held at the parent commit (2da5dbc), 20 480 B
// for the frontier and 73 728 B for the result buffer.  The buckets keep every
// entry of a distance until the distance is done, where the heap kept the
// live ones, but an entry is a node ID now, not a (dist, node) pair.
func TestFrontierRetainedCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 6210-document corpus")
	}
	pubs := dblp.Generate(dblp.Scaled(6210))
	c := pubs.BuildGraph()
	ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: 5000})
	if err != nil {
		t.Fatal(err)
	}
	s := ix.getScratch()
	s.f.push(pqItem{node: pubs.Hub(c)})
	results := 0
	ix.evaluate(s, "", Options{ExactOrder: true}, func(Result) bool { results++; return true })
	if results != 16114 {
		t.Fatalf("the hub's wildcard has %d results, want 16114", results)
	}
	// evaluate returned s to the pool reset; its capacity is still ours to read.
	t.Logf("frontier retains %d B in %d buckets, result buffer %d B", s.f.retained(), len(s.f.b), s.rbuf.retained())
	if got, parent := s.f.retained(), 20480; got > 2*parent {
		t.Errorf("frontier retains %d B, the parent's heap held %d", got, parent)
	}
	if got, parent := s.rbuf.retained(), 73728; got > 2*parent {
		t.Errorf("result buffer retains %d B, the parent's heap held %d", got, parent)
	}
}
