package flix

import (
	"math"

	"repro/internal/xmlgraph"
)

// Probe is the resumable, pull-based driver of the evaluator core for the
// ranked top-k evaluator: a Descendants evaluation paused between distance
// bands.  Next(band) runs the frontier only while its minimum distance is
// within band, buffers what the per-meta-document index probes overshoot,
// and emits exactly the results with Dist <= band in exact (dist, node)
// order.  The union over growing bands equals the full Descendants result
// set element for element, and after Next(b) every unseen result has
// Dist >= b+1 — the score bound the threshold algorithm needs.
//
// A Probe holds no goroutine; between StartProbe and Close it holds one
// pooled evaluation scratch, which Close returns.  A ranked query keeps
// thousands of probes open at once, which is why nothing in a scratch is sized
// to the collection (see enteredTable).  The zero Probe is ready for
// StartProbe, so it can be embedded by value in a pooled caller structure and
// reused.  It is not safe for concurrent use.
type Probe struct {
	s *evalScratch
}

// StartProbe arms p to evaluate start//tag (empty tag = wildcard) under
// opts; a probe still open is closed first.  Options.MaxResults, ExactOrder
// and DupSeenSet are ignored: a probe always emits in exact order under the
// entry-point coverage rule, and the caller controls how much it pulls.
func (ix *Index) StartProbe(p *Probe, start xmlgraph.NodeID, tag string, opts Options) {
	p.Close()
	opts.MaxResults, opts.ExactOrder, opts.DupSeenSet = 0, false, false
	p.s = ix.getScratch()
	ix.arm(p.s, tag, opts).buffer = true
	p.s.queue(start, 0)
}

// Next resumes the evaluation until every result with Dist <= band has been
// found, then emits exactly those (in ascending (dist, node) order) that
// were not emitted by an earlier, smaller band.  It reports whether the
// probe may still hold unseen results; once it returns false the evaluation
// is exhausted (or cancelled — see Truncated) and only Close remains.
// fn must not retain the Result beyond the call; returning false from fn
// stops the emission but not the evaluation (the rest of the band stays
// buffered for the next call).
func (p *Probe) Next(band int32, fn Emit) bool {
	s := p.s
	if s == nil {
		return false
	}
	s.run.run(band)
	// The frontier minimum now exceeds band (or the frontier drained), so
	// no future discovery can land at Dist <= band: the buffered prefix is
	// complete and final.
	s.run.fn = fn
	s.rbuf.flushThrough(band, s.emitFn)
	s.run.fn = nil
	return s.f.Len() > 0 || s.rbuf.Len() > 0
}

// Truncated reports whether the evaluation was cancelled before the
// frontier drained — the emitted results are then a sound but incomplete
// subset.
func (p *Probe) Truncated() bool { return p.s != nil && p.s.run.truncated }

// Close ends the probe, folding its counters into the index's query
// statistics (a paused probe abandoned by an early top-k stop still counts
// its work) and returning its scratch to the pool.  Close is idempotent.
func (p *Probe) Close() {
	if p.s != nil {
		p.s.run.ix.finish(p.s)
		p.s = nil
	}
}

// NextBand returns the next distance band in the exponential resume
// schedule (1, 3, 7, 15, ...), clamped to maxDist when positive.  The
// schedule bounds the number of resumptions of one probe to O(log maxDist)
// while keeping the early bands — where the threshold algorithm usually
// stops — cheap.
func NextBand(band, maxDist int32) int32 {
	nb := band*2 + 1
	if nb <= band { // overflow guard
		nb = math.MaxInt32
	}
	if maxDist > 0 && nb > maxDist {
		nb = maxDist
	}
	return nb
}
