package pathindex

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/xmlgraph"
)

// sortPacked packs pairs, sorts them with SortDistNode and unpacks them.
func sortPacked(pairs []xmlgraph.NodeDist, tmp *[]DistNode) []xmlgraph.NodeDist {
	keys := make([]DistNode, len(pairs))
	for i, p := range pairs {
		keys[i] = PackDistNode(p.Dist, int32(p.Node))
	}
	SortDistNode(keys, tmp)
	out := make([]xmlgraph.NodeDist, len(keys))
	for i, k := range keys {
		out[i] = xmlgraph.NodeDist{Node: xmlgraph.NodeID(k.Node()), Dist: k.Dist()}
	}
	return out
}

// TestSortDistNode holds the one (dist, node) sort to the BFS oracle's sort,
// xmlgraph.SortNodeDists, on both sides of the insertion cutoff: keys that
// differ in one byte only, in the distance only or in the node only, heavy
// duplicates, distances 0 and MaxInt32, and negative values of either half.
func TestSortDistNode(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	draws := []struct {
		name string
		draw func() xmlgraph.NodeDist
	}{
		{"one byte", func() xmlgraph.NodeDist {
			return xmlgraph.NodeDist{Node: 70000 + xmlgraph.NodeID(rng.Intn(256)), Dist: 3}
		}},
		{"distance only", func() xmlgraph.NodeDist { return xmlgraph.NodeDist{Node: 4242, Dist: rng.Int31n(1 << 20)} }},
		{"node only", func() xmlgraph.NodeDist { return xmlgraph.NodeDist{Node: xmlgraph.NodeID(rng.Intn(171001)), Dist: 7} }},
		{"collection", func() xmlgraph.NodeDist {
			return xmlgraph.NodeDist{Node: xmlgraph.NodeID(rng.Intn(171001)), Dist: rng.Int31n(30)}
		}},
		{"duplicates", func() xmlgraph.NodeDist {
			return xmlgraph.NodeDist{Node: xmlgraph.NodeID(rng.Intn(5)) * 4099, Dist: rng.Int31n(3)}
		}},
		{"0 and MaxInt32", func() xmlgraph.NodeDist {
			d := int32(0)
			if rng.Intn(2) == 0 {
				d = math.MaxInt32
			}
			return xmlgraph.NodeDist{Node: xmlgraph.NodeID(rng.Intn(1000)), Dist: d}
		}},
		{"any int32", func() xmlgraph.NodeDist {
			return xmlgraph.NodeDist{Node: xmlgraph.NodeID(rng.Uint32()), Dist: int32(rng.Uint32())}
		}},
	}
	var tmp []DistNode
	for _, n := range []int{0, 1, RadixCutoff, RadixCutoff + 1, 200, 3000} {
		for _, d := range draws {
			pairs := make([]xmlgraph.NodeDist, n)
			for i := range pairs {
				pairs[i] = d.draw()
			}
			got := sortPacked(pairs, &tmp)
			xmlgraph.SortNodeDists(pairs)
			if !slices.Equal(got, pairs) {
				t.Fatalf("%d pairs, %s: SortDistNode and SortNodeDists disagree", n, d.name)
			}
		}
	}
}

// TestSortDistNodeIDs holds the node-ID instantiation — the frontier's
// buckets — to slices.Sort, negative IDs and mixed signs included.
func TestSortDistNodeIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var tmp []xmlgraph.NodeID
	for _, n := range []int{0, 1, RadixCutoff, RadixCutoff + 1, 200, 3000} {
		for _, spread := range []func() xmlgraph.NodeID{
			func() xmlgraph.NodeID { return xmlgraph.NodeID(rng.Intn(171001)) },
			func() xmlgraph.NodeID { return xmlgraph.NodeID(rng.Uint32()) },
			func() xmlgraph.NodeID { return -xmlgraph.NodeID(rng.Intn(300)) },
		} {
			ids := make([]xmlgraph.NodeID, n)
			for i := range ids {
				ids[i] = spread()
			}
			want := slices.Clone(ids)
			slices.Sort(want)
			SortDistNode(ids, &tmp)
			if !slices.Equal(ids, want) {
				t.Fatalf("%d IDs: SortDistNode and slices.Sort disagree", n)
			}
		}
	}
}

// TestDistNodePacking checks that a key unpacks to its pair and that key
// order is (dist, node) order at the extremes of both halves.
func TestDistNodePacking(t *testing.T) {
	vals := []int32{math.MinInt32, -1, 0, 1, 255, 256, 1 << 24, math.MaxInt32}
	for _, d1 := range vals {
		for _, n1 := range vals {
			k1 := PackDistNode(d1, n1)
			if k1.Dist() != d1 || k1.Node() != n1 {
				t.Fatalf("(%d, %d) unpacks to (%d, %d)", d1, n1, k1.Dist(), k1.Node())
			}
			for _, d2 := range vals {
				for _, n2 := range vals {
					want := cmp.Or(cmp.Compare(d1, d2), cmp.Compare(n1, n2))
					if got := cmp.Compare(k1, PackDistNode(d2, n2)); got != want {
						t.Fatalf("(%d, %d) vs (%d, %d): keys compare %d, pairs %d", d1, n1, d2, n2, got, want)
					}
				}
			}
		}
	}
}

// FuzzSortDistNode reads the input as (dist, node) pairs of little-endian
// int32s and checks that SortDistNode's output is sorted and a permutation
// of its input, against slices.SortFunc on the pairs.
func FuzzSortDistNode(f *testing.F) {
	seed := make([]byte, 8*(RadixCutoff+3))
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 255, 255, 255, 127, 0, 0, 0, 128})
	var tmp []DistNode
	f.Fuzz(func(t *testing.T, b []byte) {
		pairs := make([]xmlgraph.NodeDist, len(b)/8)
		for i := range pairs {
			pairs[i] = xmlgraph.NodeDist{
				Dist: int32(binary.LittleEndian.Uint32(b[8*i:])),
				Node: xmlgraph.NodeID(binary.LittleEndian.Uint32(b[8*i+4:])),
			}
		}
		got := sortPacked(pairs, &tmp)
		if !slices.IsSortedFunc(got, compareNodeDist) {
			t.Fatalf("output not in (dist, node) order: %v", got)
		}
		slices.SortFunc(pairs, compareNodeDist)
		if !slices.Equal(got, pairs) {
			t.Fatalf("output is not a permutation of the input:\n got %v\nwant %v", got, pairs)
		}
	})
}

func compareNodeDist(x, y xmlgraph.NodeDist) int {
	return cmp.Or(cmp.Compare(x.Dist, y.Dist), cmp.Compare(x.Node, y.Node))
}

// BenchmarkSortDistNode times the sort on a shard answer's shape: a few
// hundred nodes of one collection over a dozen distances.
func BenchmarkSortDistNode(b *testing.B) {
	for _, n := range []int{40, 300, 3000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			in := make([]DistNode, n)
			for i := range in {
				in[i] = PackDistNode(rng.Int31n(12), rng.Int31n(171001))
			}
			keys := make([]DistNode, n)
			var tmp []DistNode
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(keys, in)
				SortDistNode(keys, &tmp)
			}
		})
	}
}
