// Package tc materializes the full transitive closure with distances.
//
// The closure is the brute-force baseline of the FliX experiments: queries
// are trivial lookups, but the stored size grows with the number of
// reachable pairs — Table 1's observation is that HOPI stays more than an
// order of magnitude smaller.  The package doubles as the exact oracle for
// the approximate result-order measurements (experiment E-err).
package tc

import (
	"io"
	"sort"
	"sync"

	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

// Index stores, for every node, the sorted postings of reachable nodes with
// shortest-path distances.
type Index struct {
	g *lgraph.LGraph

	// fwd[u] lists (node, dist) pairs reachable from u, sorted by node;
	// every node reaches itself at distance 0.
	fwd [][]posting
	// rev[v] lists the nodes reaching v; built lazily on first reverse
	// query and then cached (revOnce keeps that safe for concurrent
	// queries).
	revOnce sync.Once
	rev     [][]posting
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
	n := g.NumNodes()
	idx := &Index{g: g, fwd: make([][]posting, n)}
	for u := int32(0); u < int32(n); u++ {
		dist := g.BFSDistances(u, false)
		var row []posting
		for v := int32(0); v < int32(n); v++ {
			if dist[v] >= 0 {
				row = append(row, posting{node: v, dist: dist[v]})
			}
		}
		idx.fwd[u] = row
	}
	return idx
}

func (idx *Index) reverse() [][]posting {
	idx.revOnce.Do(func() {
		rev := make([][]posting, idx.g.NumNodes())
		for u := range idx.fwd {
			for _, p := range idx.fwd[u] {
				rev[p.node] = append(rev[p.node], posting{node: int32(u), dist: p.dist})
			}
		}
		idx.rev = rev
	})
	return idx.rev
}

// Name implements pathindex.Index.
func (idx *Index) Name() string { return "tc" }

// NumNodes implements pathindex.Index.
func (idx *Index) NumNodes() int { return idx.g.NumNodes() }

// Pairs returns the number of stored (source, target) pairs.
func (idx *Index) Pairs() int {
	total := 0
	for _, row := range idx.fwd {
		total += len(row)
	}
	return total
}

func find(row []posting, y int32) (int32, bool) {
	i := sort.Search(len(row), func(i int) bool { return row[i].node >= y })
	if i < len(row) && row[i].node == y {
		return row[i].dist, true
	}
	return 0, false
}

// Reachable implements pathindex.Index by binary search in u's postings.
func (idx *Index) Reachable(x, y int32) bool {
	_, ok := find(idx.fwd[x], y)
	return ok
}

// Distance implements pathindex.Index.
func (idx *Index) Distance(x, y int32) (int32, bool) {
	return find(idx.fwd[x], y)
}

// EachReachable implements pathindex.Index.
func (idx *Index) EachReachable(x int32, fn pathindex.Visit) {
	emit(idx.fwd[x], idx.g, lgraph.NoTag, true, fn)
}

// EachReachableByTag implements pathindex.Index.
func (idx *Index) EachReachableByTag(x int32, tag lgraph.Tag, fn pathindex.Visit) {
	emit(idx.fwd[x], idx.g, tag, false, fn)
}

// EachReaching implements pathindex.Index.
func (idx *Index) EachReaching(x int32, fn pathindex.Visit) {
	emit(idx.reverse()[x], idx.g, lgraph.NoTag, true, fn)
}

// EachReachingByTag implements pathindex.Index.
func (idx *Index) EachReachingByTag(x int32, tag lgraph.Tag, fn pathindex.Visit) {
	emit(idx.reverse()[x], idx.g, tag, false, fn)
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

// WriteTo emits the canonical compact stream — the forward postings.  It is
// Table 1's size measure and the byte-identity form the determinism tests
// compare; nothing reads it back.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	sw := storage.NewWriter(w)
	sw.Header("tc")
	sw.Uvarint(uint64(len(idx.fwd)))
	for _, row := range idx.fwd {
		sw.Uvarint(uint64(len(row)))
		prev := int32(0)
		for _, p := range row {
			sw.Varint(int64(p.node - prev))
			prev = p.node
			sw.Varint(int64(p.dist))
		}
	}
	return sw.Flush()
}
