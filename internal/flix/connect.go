package flix

import (
	"repro/internal/pathindex"
	"repro/internal/xmlgraph"
)

// Connected tests whether b is reachable from a (§5.2) and returns the
// length of the discovered path.  maxDist bounds the search depth (0 =
// unlimited); the paper recommends a threshold because the client derives
// relevance from path length and can cut off negligible results.
//
// Within one meta document the returned distance is exact; across meta
// documents it is the length of the shortest path the evaluator discovers,
// an upper bound of the true shortest distance.
func (ix *Index) Connected(a, b xmlgraph.NodeID, maxDist int32) (int32, bool) {
	return ix.ConnectedOpts(a, b, Options{MaxDist: maxDist})
}

// ConnectedOpts is Connected with the full option set: opts.MaxDist bounds
// the search depth and opts.Cancel aborts it (a canceled test reports "not
// connected" for whatever it had not yet discovered).  The remaining Options
// fields do not apply to connection tests and are ignored.
//
// Like the descendants evaluator it runs on pooled scratch state — the
// frontier and the entered table come from the index's pool and go back on
// every exit path.
func (ix *Index) ConnectedOpts(a, b xmlgraph.NodeID, opts Options) (int32, bool) {
	maxDist := opts.MaxDist
	if a == b {
		return 0, true
	}
	s := ix.getScratch()
	defer ix.putScratch(s)
	s.f.push(pqItem{dist: 0, node: a})
	tmi := ix.set.MetaOf[b]
	tlocal := ix.set.LocalOf[b]
	best := int32(-1)

	for s.f.Len() > 0 {
		if canceled(opts.Cancel) {
			break
		}
		it := s.f.pop()
		if maxDist > 0 && it.dist > maxDist {
			break
		}
		if best >= 0 && it.dist >= best {
			break // no remaining path can improve on best
		}
		mi := ix.set.MetaOf[it.node]
		le := ix.set.LocalOf[it.node]
		md := ix.set.Metas[mi]
		idx := ix.pis[mi]
		ents := s.entered.at(mi)
		if coveredBy(idx, *ents, le) {
			continue
		}
		*ents = append(*ents, le)

		if mi == tmi {
			if d, ok := idx.Distance(le, tlocal); ok {
				if total := it.dist + d; best < 0 || total < best {
					best = total
				}
			}
		}
		for i, ls := range md.LinkSources {
			d, ok := idx.Distance(le, ls)
			if !ok {
				continue
			}
			nd := it.dist + d + 1
			if maxDist > 0 && nd > maxDist {
				continue
			}
			if best >= 0 && nd >= best {
				continue
			}
			for _, cl := range md.LinksFrom(i) {
				s.f.push(pqItem{dist: nd, node: cl.To})
			}
		}
	}
	if best < 0 || (maxDist > 0 && best > maxDist) {
		return 0, false
	}
	return best, true
}

// ConnectedBidirectional runs the §5.2 optimization: one evaluation walks
// forward from a while a second walks backward from b; the searches meet in
// the middle.  Depending on the document structure either direction may
// dominate, so the two frontiers are expanded alternately, smaller first.
func (ix *Index) ConnectedBidirectional(a, b xmlgraph.NodeID, maxDist int32) (int32, bool) {
	if a == b {
		return 0, true
	}
	fwd := &halfSearch{ix: ix, forward: true, entered: make(map[int32][]int32)}
	bwd := &halfSearch{ix: ix, forward: false, entered: make(map[int32][]int32)}
	fwd.f.push(pqItem{dist: 0, node: a})
	bwd.f.push(pqItem{dist: 0, node: b})

	best := int32(-1)
	for fwd.f.Len() > 0 || bwd.f.Len() > 0 {
		// Stop when even the optimistic combination cannot improve.
		lo := int32(0)
		if fwd.f.Len() > 0 {
			lo += fwd.f.minDist()
		}
		if bwd.f.Len() > 0 {
			lo += bwd.f.minDist()
		}
		if best >= 0 && lo >= best {
			break
		}
		if maxDist > 0 && lo > maxDist {
			break
		}
		side := fwd
		other := bwd
		if fwd.f.Len() == 0 || (bwd.f.Len() > 0 && bwd.f.minDist() < fwd.f.minDist()) {
			side, other = bwd, fwd
		}
		if side.f.Len() == 0 {
			break
		}
		if d, ok := side.step(other); ok {
			if best < 0 || d < best {
				best = d
			}
		}
	}
	if best < 0 || (maxDist > 0 && best > maxDist) {
		return 0, false
	}
	return best, true
}

// halfSearch is one direction of the bidirectional connection test.
type halfSearch struct {
	ix      *Index
	forward bool
	f       frontier
	// entered records visited entry points per meta document along with
	// their distances from this side's origin.
	entered map[int32][]int32
	dists   []entryDist
}

type entryDist struct {
	meta  int32
	local int32
	dist  int32
}

// step pops one entry, records it, checks for a meeting with the other
// side's recorded entries (a path origin -> e -> p -> other origin), and
// expands the runtime links of this side.  It returns a candidate total
// distance when the frontiers meet.
func (h *halfSearch) step(other *halfSearch) (int32, bool) {
	ix := h.ix
	it := h.f.pop()
	mi := ix.set.MetaOf[it.node]
	le := ix.set.LocalOf[it.node]
	md := ix.set.Metas[mi]
	idx := ix.pis[mi]
	prev := h.entered[mi]
	if h.covered(idx, prev, le) {
		return 0, false
	}
	h.entered[mi] = append(prev, le)
	h.dists = append(h.dists, entryDist{meta: mi, local: le, dist: it.dist})

	// Meeting check against every entry of the other side in this meta
	// document.  For the forward side, a path runs le -> p; for the
	// backward side, p -> le.
	best := int32(-1)
	for _, ed := range other.dists {
		if ed.meta != mi {
			continue
		}
		var d int32
		var ok bool
		if h.forward {
			d, ok = idx.Distance(le, ed.local)
		} else {
			d, ok = idx.Distance(ed.local, le)
		}
		if ok {
			if total := it.dist + d + ed.dist; best < 0 || total < best {
				best = total
			}
		}
	}

	if h.forward {
		for i, ls := range md.LinkSources {
			d, ok := idx.Distance(le, ls)
			if !ok {
				continue
			}
			for _, cl := range md.LinksFrom(i) {
				h.f.push(pqItem{dist: it.dist + d + 1, node: cl.To})
			}
		}
	} else {
		for _, il := range md.InLinks {
			d, ok := idx.Distance(il.ToLocal, le)
			if !ok {
				continue
			}
			h.f.push(pqItem{dist: it.dist + d + 1, node: il.From})
		}
	}
	return best, best >= 0
}

// covered is coveredBy with direction awareness: for the backward side, an
// entry p covers e when e reaches p (everything above e was explored).
func (h *halfSearch) covered(idx pathindex.Index, prev []int32, n int32) bool {
	for _, p := range prev {
		if h.forward {
			if idx.Reachable(p, n) {
				return true
			}
		} else if idx.Reachable(n, p) {
			return true
		}
	}
	return false
}

// Ancestors evaluates the reverse axis start//ancestor::tag (§5.1 notes the
// same algorithm applies to ancestors): all elements named tag from which
// start is reachable, in approximately ascending distance order.  An empty
// tag means any ancestor.  The frontier and entered table come from the
// scratch pool; the reverse axis is rare enough that its visit callback
// stays a plain closure.
func (ix *Index) Ancestors(start xmlgraph.NodeID, tag string, opts Options, fn Emit) {
	s := ix.getScratch()
	defer ix.putScratch(s)
	s.f.push(pqItem{dist: 0, node: start})
	emitted := 0
	tagID := ix.coll.TagIDOf(tag)

	for s.f.Len() > 0 {
		if canceled(opts.Cancel) {
			return
		}
		it := s.f.pop()
		if opts.MaxDist > 0 && it.dist > opts.MaxDist {
			break
		}
		mi := ix.set.MetaOf[it.node]
		le := ix.set.LocalOf[it.node]
		md := ix.set.Metas[mi]
		idx := ix.pis[mi]
		ents := s.entered.at(mi)
		prev := *ents
		// Reverse coverage: p covers e when e reaches p.
		skip := false
		for _, p := range prev {
			if idx.Reachable(le, p) {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		*ents = append(prev, le)

		stop := false
		visit := func(n, ld int32) bool {
			gd := it.dist + ld
			if opts.MaxDist > 0 && gd > opts.MaxDist {
				return false
			}
			if gd == 0 && !opts.IncludeSelf {
				return true
			}
			for _, p := range prev {
				if idx.Reachable(n, p) {
					return true
				}
			}
			if !fn(Result{Node: md.ToGlobal(n), Dist: gd}) {
				stop = true
				return false
			}
			emitted++
			if opts.MaxResults > 0 && emitted >= opts.MaxResults {
				stop = true
				return false
			}
			return true
		}
		if tag == "" {
			idx.EachReaching(le, visit)
		} else if lt := md.LocalTag(tagID); lt >= 0 {
			idx.EachReachingByTag(le, lt, visit)
		}
		if stop {
			return
		}

		// Follow incoming runtime links: any in-link target that reaches
		// e extends the ancestor path into another meta document.
		for _, il := range md.InLinks {
			d, ok := idx.Distance(il.ToLocal, le)
			if !ok {
				continue
			}
			nd := it.dist + d + 1
			if opts.MaxDist > 0 && nd > opts.MaxDist {
				continue
			}
			s.f.push(pqItem{dist: nd, node: il.From})
		}
	}
}
