package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the default number of virtual nodes per shard on the
// ring.  More vnodes smooth the meta-document distribution at the cost of a
// longer (binary-searched, build-once) point list.
const DefaultVNodes = 64

// Ring is a consistent-hash ring assigning meta-document IDs to shards.
// It is immutable after New and safe for concurrent use.  Every member of a
// cluster — the router and each shard — builds the ring from the shard
// count and DefaultVNodes and so agrees on the assignment; the topology
// fingerprint check enforces the remaining ingredient (identical
// meta-document decompositions).
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int32
}

// NewRing builds the ring for the given shard count (>= 1) and vnodes per
// shard (<= 0 selects DefaultVNodes).
func NewRing(shards, vnodes int) *Ring {
	if shards < 1 {
		panic(fmt.Sprintf("shard: NewRing with %d shards", shards))
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes, points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashString(fmt.Sprintf("shard-%d/vnode-%d", s, v)), shard: int32(s)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// VNodes returns the number of virtual nodes per shard.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the shard owning meta document mi: the successor of the
// meta key on the ring.
func (r *Ring) Owner(mi int32) int {
	h := hashString(fmt.Sprintf("meta-%d", mi))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].shard)
}

// OwnedBy returns the ownership mask of one shard over numMetas meta
// documents: mask[mi] reports whether the shard owns meta document mi.
func (r *Ring) OwnedBy(shard, numMetas int) []bool {
	mask := make([]bool, numMetas)
	for mi := 0; mi < numMetas; mi++ {
		mask[mi] = r.Owner(int32(mi)) == shard
	}
	return mask
}

// hashString places a key on the ring: FNV-64a over the bytes, then a
// splitmix64-style finalizer.  Raw FNV has almost no avalanche — sequential
// keys ("meta-0", "meta-1", ...) differ only in their low bits and cluster
// on one arc of the ring, starving every shard but one on small
// collections.  The finalizer spreads those clusters uniformly.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer (Stafford variant 13): a bijective
// 64-bit mixer with full avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
