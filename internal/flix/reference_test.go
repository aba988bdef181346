package flix

import (
	"container/heap"
	"testing"
	"time"

	"repro/internal/dblp"
	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/xmlgraph"
)

// This file preserves the pre-optimization Path Expression Evaluator
// verbatim: a container/heap binary frontier with boxed pqItems, per-query
// map scratch tables, and a visit closure rebuilt on every frontier pop.
// It is test-only code.  It exists for two jobs:
//
//   - correctness: hotpath_test.go proves the optimized evaluator's result
//     stream is byte-identical to this one on every generator family and
//     option combination, and frontier_reference_test.go pins the frozen
//     4-ary heap the bucket queue is held to to container/heap's pop order;
//   - benchmarking: BenchmarkHotPathReference (below) runs it beside the
//     serving evaluator on the same index in the same process, so the
//     before/after of the allocation-free rewrite needs no old commit.
//
// The only intentional difference is that the reference evaluator does not
// update Index.Stats (keeping the serving counters clean makes the baseline
// slightly FASTER, so measured speedups are conservative).

// refFrontier is the old binary min-heap over (dist, node) driven through
// container/heap — every Push and Pop boxes a pqItem into an `any`.
type refFrontier []pqItem

func (f refFrontier) Len() int { return len(f) }
func (f refFrontier) Less(i, j int) bool {
	if f[i].dist != f[j].dist {
		return f[i].dist < f[j].dist
	}
	return f[i].node < f[j].node
}
func (f refFrontier) Swap(i, j int) { f[i], f[j] = f[j], f[i] }
func (f *refFrontier) Push(x any)   { *f = append(*f, x.(pqItem)) }
func (f *refFrontier) Pop() any {
	old := *f
	n := len(old)
	it := old[n-1]
	*f = old[:n-1]
	return it
}

// ReferenceDescendants is Descendants on the frozen pre-optimization
// evaluator.  Results are streamed in the exact order the old engine
// produced; Index.Stats counters are not updated.
func (ix *Index) ReferenceDescendants(start xmlgraph.NodeID, tag string, opts Options, fn Emit) {
	ix.referenceEvaluate([]pqItem{{dist: 0, node: start}}, tag, opts, fn)
}

// ReferenceTypeDescendants is TypeDescendants on the frozen
// pre-optimization evaluator, starts grown via repeated append as before.
func (ix *Index) ReferenceTypeDescendants(tagA, tagB string, opts Options, fn Emit) {
	var starts []pqItem
	for _, n := range ix.coll.NodesByTag(tagA) {
		starts = append(starts, pqItem{dist: 0, node: n})
	}
	ix.referenceEvaluate(starts, tagB, opts, fn)
}

// referenceEvaluate is the old evaluate loop, kept byte-for-byte apart from
// the removed stats updates.
func (ix *Index) referenceEvaluate(starts []pqItem, tag string, opts Options, fn Emit) {
	tr := opts.Tracer
	f := make(refFrontier, 0, len(starts))
	for _, s := range starts {
		f = append(f, s)
	}
	heap.Init(&f)

	entered := make(map[int32][]int32) // meta ID -> visited entry points
	emitted := 0
	stopped := false
	var seenResults map[xmlgraph.NodeID]struct{}
	var seenEntries map[xmlgraph.NodeID]struct{}
	if opts.DupSeenSet {
		seenResults = make(map[xmlgraph.NodeID]struct{})
		seenEntries = make(map[xmlgraph.NodeID]struct{})
	}

	var buffer *refResultBuffer
	if opts.ExactOrder {
		buffer = &refResultBuffer{}
	}
	emit := func(r Result) bool {
		if !fn(r) {
			return false
		}
		emitted++
		return opts.MaxResults <= 0 || emitted < opts.MaxResults
	}

	for f.Len() > 0 && !stopped {
		if canceled(opts.Cancel) {
			stopped = true
			break
		}
		it := heap.Pop(&f).(pqItem)
		if tr != nil {
			tr.Pop(int64(it.node), it.dist)
		}
		if opts.MaxDist > 0 && it.dist > opts.MaxDist {
			break
		}
		if buffer != nil {
			if !buffer.flush(it.dist, emit) {
				stopped = true
				break
			}
		}
		mi := ix.set.MetaOf[it.node]
		le := ix.set.LocalOf[it.node]
		md := ix.set.Metas[mi]
		idx := ix.pis[mi]

		var prev []int32
		if opts.DupSeenSet {
			if _, dup := seenEntries[it.node]; dup {
				if tr != nil {
					tr.DupDrop(mi, int64(it.node), it.dist)
				}
				continue
			}
			seenEntries[it.node] = struct{}{}
		} else {
			prev = entered[mi]
			if refCoveredBy(idx, prev, le) {
				if tr != nil {
					tr.DupDrop(mi, int64(it.node), it.dist)
				}
				continue
			}
			entered[mi] = append(prev, le)
		}
		if tr != nil {
			tr.Entry(mi, idx.Name(), int64(it.node), it.dist)
		}

		localTag := lgraph.Tag(-1)
		wildcard := tag == ""
		if !wildcard {
			localTag = md.LocalTag(ix.coll.TagIDOf(tag))
			if localTag == lgraph.NoTag {
				goto links
			}
		}
		{
			var probeStart time.Time
			probeResults := 0
			if tr != nil {
				probeStart = time.Now()
			}
			visit := func(n, ld int32) bool {
				gd := it.dist + ld
				if opts.MaxDist > 0 && gd > opts.MaxDist {
					return false
				}
				if gd == 0 && !opts.IncludeSelf {
					return true
				}
				g := md.ToGlobal(n)
				if opts.DupSeenSet {
					if _, dup := seenResults[g]; dup {
						return true
					}
					seenResults[g] = struct{}{}
				} else if refCoveredBy(idx, prev, n) {
					return true
				}
				r := Result{Node: g, Dist: gd}
				if tr != nil {
					probeResults++
					tr.Result(mi, int64(g), gd)
				}
				if buffer != nil {
					buffer.add(r)
					return true
				}
				if !emit(r) {
					stopped = true
					return false
				}
				return true
			}
			if wildcard {
				idx.EachReachable(le, visit)
			} else {
				idx.EachReachableByTag(le, localTag, visit)
			}
			if tr != nil {
				tr.Probe(mi, idx.Name(), probeResults, time.Since(probeStart))
			}
			if stopped {
				break
			}
		}

	links:
		for i, ls := range md.LinkSources {
			d, ok := idx.Distance(le, ls)
			if !ok {
				continue
			}
			nd := it.dist + d + 1
			if opts.MaxDist > 0 && nd > opts.MaxDist {
				continue
			}
			for _, cl := range md.LinksFrom(i) {
				heap.Push(&f, pqItem{dist: nd, node: cl.To})
				if tr != nil {
					tr.LinkHop(mi, int64(cl.To), nd)
				}
			}
		}
	}
	if buffer != nil && !stopped {
		buffer.flushAll(emit)
	}
}

// refResultBuffer is the old ExactOrder buffer over a container/heap-driven
// result heap.
type refResultBuffer struct {
	h refResultHeap
}

func (b *refResultBuffer) add(r Result) {
	heap.Push(&b.h, r)
}

func (b *refResultBuffer) flush(bound int32, emit func(Result) bool) bool {
	for b.h.Len() > 0 && b.h[0].Dist < bound {
		if !emit(heap.Pop(&b.h).(Result)) {
			return false
		}
	}
	return true
}

func (b *refResultBuffer) flushAll(emit func(Result) bool) {
	for b.h.Len() > 0 {
		if !emit(heap.Pop(&b.h).(Result)) {
			return
		}
	}
}

type refResultHeap []Result

func (h refResultHeap) Len() int { return len(h) }
func (h refResultHeap) Less(i, j int) bool {
	if h[i].Dist != h[j].Dist {
		return h[i].Dist < h[j].Dist
	}
	return h[i].Node < h[j].Node
}
func (h refResultHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refResultHeap) Push(x any)   { *h = append(*h, x.(Result)) }
func (h *refResultHeap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	*h = old[:n-1]
	return r
}

// refCoveredBy reports whether any entry point in prev reaches local node n.
func refCoveredBy(idx pathindex.Index, prev []int32, n int32) bool {
	for _, p := range prev {
		if idx.Reachable(p, n) {
			return true
		}
	}
	return false
}

// BenchmarkHotPathReference runs the frozen pre-optimization evaluator and
// the serving one on the same query over a 1000-document DBLP extract: the
// ns/op and allocs/op gap is the effect of the pooled scratch and the bucket
// frontier.
func BenchmarkHotPathReference(b *testing.B) {
	corpus := dblp.Generate(dblp.Scaled(1000))
	c := corpus.BuildGraph()
	ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: 5000})
	if err != nil {
		b.Fatal(err)
	}
	start := corpus.Hub(c)
	drop := func(Result) bool { return true }
	opts := Options{MaxResults: 100}
	for _, ev := range []struct {
		name string
		run  func()
	}{
		{"reference", func() { ix.ReferenceDescendants(start, "article", opts, drop) }},
		{"serving", func() { ix.Descendants(start, "article", opts, drop) }},
	} {
		b.Run(ev.name, func(b *testing.B) {
			for i := 0; i < 3; i++ { // warm the scratch pool and lazy index state
				ev.run()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.run()
			}
		})
	}
}
