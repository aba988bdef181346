package flix

import (
	"repro/internal/xmlgraph"
)

// This file holds the drivers of the evaluator core (evaluate.go) that are not
// descendant queries: the reverse axis, and the connection tests of §5.2.
// They seed a scratch and take the core's steps; what is theirs is the rule
// by which they stop.

// Ancestors evaluates the reverse axis start//ancestor::tag (§5.1 notes the
// same algorithm applies to ancestors): all elements named tag from which
// start is reachable, in approximately ascending distance order.  An empty
// tag means any ancestor.
func (ix *Index) Ancestors(start xmlgraph.NodeID, tag string, opts Options, fn Emit) {
	s := ix.getScratch()
	s.run.reverse = true
	s.queue(start, 0)
	ix.evaluate(s, tag, opts, fn)
}

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
// the search depth, opts.Cancel aborts it (a canceled test reports "not
// connected" for whatever it had not yet discovered) and opts.Tracer sees
// its pops, entries and link hops.  The remaining Options fields do not
// apply to connection tests and are ignored.
//
// It is a wildcard evaluation from a whose probe is one distance test:
// an entry admitted in b's meta document asks its index how far b is.  A
// distance found bounds the rest of the search — only an entry strictly
// nearer than it, and only links queued strictly below it, can improve on it.
func (ix *Index) ConnectedOpts(a, b xmlgraph.NodeID, opts Options) (int32, bool) {
	if a == b {
		return 0, true
	}
	s := ix.getScratch()
	defer ix.finish(s)
	r := ix.arm(s, "", Options{MaxDist: opts.MaxDist, Cancel: opts.Cancel, Tracer: opts.Tracer})
	s.queue(a, 0)
	tmi, tlocal := ix.set.MetaOf[b], ix.set.LocalOf[b]
	best := int32(-1)
	for s.f.Len() > 0 && (best < 0 || s.f.minDist() < best) && !canceled(opts.Cancel) {
		if !r.admit(s.f.pop()) {
			continue
		}
		if r.mi == tmi {
			if d, ok := r.idx.Distance(r.le, tlocal); ok {
				total := r.dist + d
				if (best < 0 || total < best) && (opts.MaxDist <= 0 || total <= opts.MaxDist) {
					best = total
				}
			}
		}
		if best >= 0 {
			if r.dist+1 >= best {
				continue // whatever this entry's links lead to is no nearer
			}
			r.opts.MaxDist = best - 1
		}
		r.follow()
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// ConnectedBidirectional runs the §5.2 optimization: one evaluation walks
// forward from a while a second walks backward from b; the searches meet in
// the middle.  Depending on the document structure either direction may
// dominate, so the two frontiers are expanded alternately, smaller first.
// Each half is an armed evaluator core of its own — the index statistics
// count two evaluations — and in place of a probe every admitted entry is
// tested against the entries the other half admitted in the same meta
// document: a path a -> e -> p -> b.
func (ix *Index) ConnectedBidirectional(a, b xmlgraph.NodeID, maxDist int32) (int32, bool) {
	if a == b {
		return 0, true
	}
	fwd, bwd := ix.getScratch(), ix.getScratch()
	defer ix.finish(fwd)
	defer ix.finish(bwd)
	ix.arm(fwd, "", Options{})
	ix.arm(bwd, "", Options{}).reverse = true
	fwd.queue(a, 0)
	bwd.queue(b, 0)
	var met [2][]entryDist // the entries admitted forward and backward

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
		if (best >= 0 && lo >= best) || (maxDist > 0 && lo > maxDist) {
			break
		}
		side, mine, theirs := fwd, &met[0], met[1]
		if fwd.f.Len() == 0 || (bwd.f.Len() > 0 && bwd.f.minDist() < fwd.f.minDist()) {
			side, mine, theirs = bwd, &met[1], met[0]
		}
		r := &side.run
		if !r.admit(side.f.pop()) {
			continue
		}
		*mine = append(*mine, entryDist{meta: r.mi, local: r.le, dist: r.dist})
		for _, ed := range theirs {
			if ed.meta != r.mi {
				continue
			}
			from, to := r.le, ed.local
			if r.reverse {
				from, to = to, from
			}
			if d, ok := r.idx.Distance(from, to); ok {
				if total := r.dist + d + ed.dist; best < 0 || total < best {
					best = total
				}
			}
		}
		r.follow()
	}
	if best < 0 || (maxDist > 0 && best > maxDist) {
		return 0, false
	}
	return best, true
}

// entryDist is an entry one half of the bidirectional test admitted, with its
// distance from that half's origin.
type entryDist struct {
	meta, local, dist int32
}
