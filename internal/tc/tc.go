// Package tc materializes the full transitive closure with distances.
//
// The closure is the brute-force baseline of the FliX experiments: queries
// are trivial lookups, but the stored size grows with the number of
// reachable pairs — Table 1's observation is that HOPI stays more than an
// order of magnitude smaller.  The package doubles as the exact oracle for
// the approximate result-order measurements (experiment E-err).
package tc

import (
	"sort"
	"sync"

	"repro/internal/csr"
	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

// Index stores, for every node, the sorted postings of reachable nodes with
// shortest-path distances.
type Index struct {
	g *lgraph.LGraph

	// Row u of fwd lists the (node, dist) pairs reachable from u, sorted
	// by node; every node reaches itself at distance 0.
	fwd csr.Rows[posting]
	// Row v of rev lists the nodes reaching v; built lazily on first
	// reverse query and then cached (revOnce keeps that safe for
	// concurrent queries).
	revOnce sync.Once
	rev     csr.Rows[posting]
}

type posting struct {
	node int32
	dist int32
}

var _ pathindex.Index = (*Index)(nil)

// Strategy is the registry entry for the transitive closure.
var Strategy = pathindex.Strategy{
	Name:  "tc",
	Build: func(g *lgraph.LGraph) (pathindex.Index, error) { return Build(g), nil },
}

// Build runs one BFS per node.  The cost is output-sensitive: proportional
// to the number of reachable pairs.
func Build(g *lgraph.LGraph) *Index {
	n := int32(g.NumNodes())
	idx := &Index{g: g, fwd: csr.Rows[posting]{Off: make([]uint32, 1, n+1)}}
	var row []posting
	for u := int32(0); u < n; u++ {
		dist := g.BFSDistances(u, false)
		row = row[:0]
		for v := int32(0); v < n; v++ {
			if dist[v] >= 0 {
				row = append(row, posting{node: v, dist: dist[v]})
			}
		}
		idx.fwd.Append(row...)
	}
	return idx
}

func (idx *Index) reverse() csr.Rows[posting] {
	idx.revOnce.Do(func() {
		idx.rev = csr.Group(idx.g.NumNodes(), func(add func(int32, posting)) {
			for u := int32(0); u < int32(idx.fwd.Len()); u++ {
				for _, p := range idx.fwd.Row(u) {
					add(p.node, posting{node: u, dist: p.dist})
				}
			}
		})
	})
	return idx.rev
}

// Name implements pathindex.Index.
func (idx *Index) Name() string { return "tc" }

// NumNodes implements pathindex.Index.
func (idx *Index) NumNodes() int { return idx.g.NumNodes() }

func find(row []posting, y int32) (int32, bool) {
	i := sort.Search(len(row), func(i int) bool { return row[i].node >= y })
	if i < len(row) && row[i].node == y {
		return row[i].dist, true
	}
	return 0, false
}

// Reachable implements pathindex.Index by binary search in u's postings.
func (idx *Index) Reachable(x, y int32) bool {
	_, ok := find(idx.fwd.Row(x), y)
	return ok
}

// Distance implements pathindex.Index.
func (idx *Index) Distance(x, y int32) (int32, bool) {
	return find(idx.fwd.Row(x), y)
}

// EachReachable implements pathindex.Index.
func (idx *Index) EachReachable(x int32, fn pathindex.Visit) {
	emit(idx.fwd.Row(x), idx.g, lgraph.NoTag, true, fn)
}

// EachReachableByTag implements pathindex.Index.
func (idx *Index) EachReachableByTag(x int32, tag lgraph.Tag, fn pathindex.Visit) {
	emit(idx.fwd.Row(x), idx.g, tag, false, fn)
}

// EachReaching implements pathindex.Index.
func (idx *Index) EachReaching(x int32, fn pathindex.Visit) {
	emit(idx.reverse().Row(x), idx.g, lgraph.NoTag, true, fn)
}

// EachReachingByTag implements pathindex.Index.
func (idx *Index) EachReachingByTag(x int32, tag lgraph.Tag, fn pathindex.Visit) {
	emit(idx.reverse().Row(x), idx.g, tag, false, fn)
}

// emit sorts a postings row by (dist, node) and streams it.
func emit(row []posting, g *lgraph.LGraph, tag lgraph.Tag, wildcard bool, fn pathindex.Visit) {
	if !wildcard && tag == lgraph.NoTag {
		return
	}
	sorted := make([]posting, 0, len(row))
	for _, p := range row {
		if wildcard || g.Tag(p.node) == tag {
			sorted = append(sorted, p)
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].dist != sorted[j].dist {
			return sorted[i].dist < sorted[j].dist
		}
		return sorted[i].node < sorted[j].node
	})
	for _, p := range sorted {
		if !fn(p.node, p.dist) {
			return
		}
	}
}

// EncodeStream writes the index's part of the canonical compact stream —
// the forward postings.  It is Table 1's size measure and the byte-identity
// form the determinism tests compare; nothing reads it back.
func (idx *Index) EncodeStream(sw *storage.SnapshotWriter) {
	sw.StreamHeader("tc")
	sw.Uvarint(uint64(idx.fwd.Len()))
	for u := range int32(idx.fwd.Len()) {
		row := idx.fwd.Row(u)
		sw.Uvarint(uint64(len(row)))
		prev := int32(0)
		for _, p := range row {
			sw.Varint(int64(p.node - prev))
			prev = p.node
			sw.Varint(int64(p.dist))
		}
	}
}
