package pathindex

import "slices"

// DistNode is a (distance, node) pair packed into one integer whose order
// is the (dist, node) order every enumeration promises: the distance in the
// high half, the node with its sign bit flipped in the low half, so both
// compare as signed int32s.  Sorting pairs is sorting integers.
type DistNode int64

// PackDistNode packs dist and node into a DistNode.
func PackDistNode(dist, node int32) DistNode {
	return DistNode(int64(dist)<<32 | int64(uint32(node)^1<<31))
}

// Dist returns the pair's distance.
func (k DistNode) Dist() int32 { return int32(k >> 32) }

// Node returns the pair's node.
func (k DistNode) Node() int32 { return int32(uint32(k) ^ 1<<31) }

// RadixCutoff is the length up to which SortDistNode sorts by insertion:
// below it one counting pass (the keys plus 256 counters) costs more than
// the insertions.
const RadixCutoff = 48

// SortDistNode sorts a ascending: packed (distance, node) keys, or the bare
// node IDs of one distance (the evaluator's frontier buckets).  It is the
// one (dist, node) sort of the serving path — frontier buckets, PPO's sort
// fallback, a shard's wire entries, the router's gather and the cache's
// ExactOrder replay.  Up to RadixCutoff keys it inserts; beyond, it runs an
// LSD radix sort on bytes that skips every byte all of a agrees on: node IDs
// of one collection share their high bytes and distances are small, so a
// few passes do whatever the key width.  tmp is the second buffer, grown as
// needed and kept by the caller, so a warm caller allocates nothing.
// (Comparison sorts with a closure were 15 % of a sharded op's CPU, and the
// generic slices.Sort a quarter of the evaluator's loop.)
func SortDistNode[K ~int32 | ~int64](a []K, tmp *[]K) {
	if len(a) <= RadixCutoff {
		for i := 1; i < len(a); i++ {
			x, j := a[i], i
			for ; j > 0 && a[j-1] > x; j-- {
				a[j] = a[j-1]
			}
			a[j] = x
		}
		return
	}
	// A key widens to 64 bits with its sign extended; flipping bit 63 then
	// orders it as an unsigned number, negative values first, at either
	// width.  The bytes above an int32's width agree unless signs differ.
	var differ uint64
	for _, x := range a {
		differ |= uint64(x ^ a[0])
	}
	*tmp = slices.Grow((*tmp)[:0], len(a))
	src, dst := a, (*tmp)[:len(a)]
	for shift := 0; shift < 64; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var at [256]int32
		for _, x := range src {
			at[(uint64(x)^1<<63)>>shift&0xff]++
		}
		sum := int32(0)
		for i, n := range at {
			at[i], sum = sum, sum+n
		}
		for _, x := range src {
			k := (uint64(x) ^ 1<<63) >> shift & 0xff
			dst[at[k]] = x
			at[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
