// Package obs is the observability toolkit behind FliX's serving and
// self-tuning layers: span-style query traces (trace.go) and lock-free
// latency histograms (this file).  It depends only on the standard library
// so every other package — the evaluator, the server, the CLIs — can use it
// without cycles or external modules.
//
// An `obs.Histogram` buckets durations by bits.Len64 of their nanoseconds, 40
// finite buckets and an overflow, each an atomic counter, so Observe is
// three atomic adds from any goroutine and a snapshot derives its count
// from the bucket sum, keeping the exposed +Inf count consistent under
// racing writers (`TestHistogramConcurrent`).  An `obs.Trace` records events
// behind one nil check per event site in the evaluator — the untraced path
// pays that check and nothing else, which the benchmark's
// `obs.trace_overhead_ratio` watches — and caps its event list while its
// aggregates and per-meta-document visits stay exact past the cap; its
// `obs.Summary` is the EXPLAIN a node returns.  A TraceFragment is a trace
// reduced to bounded aggregates for a shard's answer, and an
// `obs.ClusterTrace` is the router's merged span tree; all are plain data
// that `flixquery -explain` decodes as the HTTP API returns them.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of finite histogram buckets.  Bucket i counts
// observations whose duration in nanoseconds has bit length i, i.e. lies in
// [2^(i-1), 2^i).  40 buckets cover 1ns .. ~9.2 minutes; anything longer
// lands in the overflow (+Inf) bucket.
const NumBuckets = 40

// Histogram is a log2-bucketed latency histogram safe for concurrent use
// without locks: Observe is one atomic add on a bucket plus two on the
// count/sum, so it can sit on a request hot path.  The zero value is ready
// to use.
type Histogram struct {
	buckets  [NumBuckets + 1]atomic.Uint64 // [NumBuckets] = overflow
	count    atomic.Uint64
	sumNanos atomic.Int64
}

// bucketOf maps a non-negative duration to its bucket index.
func bucketOf(d time.Duration) int {
	i := bits.Len64(uint64(d))
	if i > NumBuckets {
		return NumBuckets
	}
	return i
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// Count returns the number of samples recorded so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot copies the counters.  Individual buckets are read atomically;
// samples landing mid-snapshot may be partially visible, which is
// acceptable for monitoring (cumulative counts stay monotonic across
// snapshots because buckets only grow).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	// Count is derived from the buckets rather than read from h.count so
	// the exposed +Inf cumulative always equals the bucket sum, even when
	// an Observe lands between the two loads.
	s.SumNanos = h.sumNanos.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// HistSnapshot is an immutable copy of a Histogram.
type HistSnapshot struct {
	Buckets  [NumBuckets + 1]uint64
	Count    uint64
	SumNanos int64
}

// BucketUpper returns the exclusive upper bound of bucket i in nanoseconds
// (2^i); the overflow bucket returns +Inf.
func BucketUpper(i int) float64 {
	if i >= NumBuckets {
		return math.Inf(1)
	}
	return float64(uint64(1) << uint(i))
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the containing bucket — the standard Prometheus estimation.  It
// returns 0 when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = float64(uint64(1) << uint(i-1))
		}
		hi := BucketUpper(i)
		if math.IsInf(hi, 1) {
			return time.Duration(lo) // best effort for the overflow bucket
		}
		frac := (rank - float64(prev)) / float64(c)
		return time.Duration(lo + (hi-lo)*frac)
	}
	return time.Duration(s.SumNanos) // unreachable unless racing snapshot
}

// Mean returns the average observed latency.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / int64(s.Count))
}

// Sum returns the total observed latency.
func (s HistSnapshot) Sum() time.Duration { return time.Duration(s.SumNanos) }

// exposeFirst is the first bucket index rendered individually in the
// Prometheus exposition: everything below 2^10 ns (1.024µs) is folded into
// the first rendered bucket, keeping the line count per series reasonable
// while the cumulative semantics stay exact.
const exposeFirst = 10

// exposeLast is the last finite bucket rendered (2^31 ns ≈ 2.1s); slower
// requests only show up in +Inf, which is where any sane alert looks.
const exposeLast = 31

// ExpositionBuckets returns the cumulative (le, count) pairs for the
// Prometheus text format, ending with the +Inf bucket.  Le bounds are in
// seconds.
func (s HistSnapshot) ExpositionBuckets() []BucketCount {
	out := make([]BucketCount, 0, exposeLast-exposeFirst+2)
	cum := uint64(0)
	for i := 0; i <= NumBuckets; i++ {
		cum += s.Buckets[i]
		if i < exposeFirst {
			continue
		}
		if i <= exposeLast {
			out = append(out, BucketCount{Le: BucketUpper(i) / 1e9, Count: cum})
		}
	}
	out = append(out, BucketCount{Le: math.Inf(1), Count: s.Count})
	return out
}

// BucketCount is one cumulative histogram bucket of the exposition format.
type BucketCount struct {
	Le    float64 // upper bound in seconds; +Inf for the last bucket
	Count uint64
}
