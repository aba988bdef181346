package apex

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/lgraph"
	"repro/internal/storage"
)

// buildGraph: a small DAG with two structurally different "b" nodes:
//
//	0:a ─> 1:b ─> 3:c
//	0:a ─> 2:d ─> 4:b    (b under d: different incoming path than 1)
//	4:b ─> 5:c
func buildGraph(t testing.TB) (*lgraph.LGraph, *Index) {
	t.Helper()
	b := lgraph.NewBuilder()
	for _, tag := range []string{"a", "b", "d", "c", "b", "c"} {
		b.AddNode(tag)
	}
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {4, 5}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Finish()
	return g, Build(g)
}

func TestPartitionSeparatesByIncomingPath(t *testing.T) {
	_, idx := buildGraph(t)
	// Node 1 (b under a) and node 4 (b under d) must be in different
	// classes; node 3 (c under a/b) and 5 (c under a/d/b) likewise.
	if idx.Class(1) == idx.Class(4) {
		t.Error("b-under-a and b-under-d merged")
	}
	if idx.Class(3) == idx.Class(5) {
		t.Error("c-under-b and c-under-d/b merged")
	}
}

func TestExtents(t *testing.T) {
	_, idx := buildGraph(t)
	for v := int32(0); v < 6; v++ {
		found := false
		for _, m := range idx.Extent(idx.Class(v)) {
			if m == v {
				found = true
			}
		}
		if !found {
			t.Errorf("node %d missing from its extent", v)
		}
	}
}

func TestPathExtent(t *testing.T) {
	g, idx := buildGraph(t)
	a, b, c := g.Tag(0), g.Tag(1), g.Tag(3)
	if got := idx.PathExtent([]lgraph.Tag{a, b, c}); !reflect.DeepEqual(got, []int32{3}) {
		t.Errorf("PathExtent(a/b/c) = %v, want [3]", got)
	}
	if got := idx.PathExtent([]lgraph.Tag{b, c}); !reflect.DeepEqual(got, []int32{3, 5}) {
		t.Errorf("PathExtent(b/c) = %v, want [3 5]", got)
	}
	if got := idx.PathExtent([]lgraph.Tag{b}); !reflect.DeepEqual(got, []int32{1, 4}) {
		t.Errorf("PathExtent(b) = %v, want [1 4]", got)
	}
	if got := idx.PathExtent([]lgraph.Tag{a, c}); got != nil {
		t.Errorf("PathExtent(a/c) = %v, want nil", got)
	}
	if got := idx.PathExtent([]lgraph.Tag{lgraph.NoTag}); got != nil {
		t.Errorf("PathExtent(NoTag) = %v, want nil", got)
	}
	if got := idx.PathExtent(nil); got != nil {
		t.Errorf("PathExtent(nil) = %v", got)
	}
}

func TestReachableDistance(t *testing.T) {
	_, idx := buildGraph(t)
	if !idx.Reachable(0, 5) {
		t.Error("0 must reach 5")
	}
	if idx.Reachable(1, 4) {
		t.Error("1 must not reach 4")
	}
	if d, ok := idx.Distance(0, 5); !ok || d != 3 {
		t.Errorf("Distance(0,5) = %d,%t", d, ok)
	}
	if d, ok := idx.Distance(2, 2); !ok || d != 0 {
		t.Errorf("Distance(2,2) = %d,%t", d, ok)
	}
	if _, ok := idx.Distance(3, 0); ok {
		t.Error("Distance(3,0) should fail")
	}
}

func TestEachReachableByTag(t *testing.T) {
	g, idx := buildGraph(t)
	var nodes, dists []int32
	idx.EachReachableByTag(0, g.Tag(3), func(n, d int32) bool {
		nodes = append(nodes, n)
		dists = append(dists, d)
		return true
	})
	if !reflect.DeepEqual(nodes, []int32{3, 5}) || !reflect.DeepEqual(dists, []int32{2, 3}) {
		t.Errorf("c-descendants of 0 = %v %v", nodes, dists)
	}
}

func TestEachReachableWildcard(t *testing.T) {
	_, idx := buildGraph(t)
	var nodes []int32
	idx.EachReachable(0, func(n, d int32) bool {
		nodes = append(nodes, n)
		return true
	})
	if !reflect.DeepEqual(nodes, []int32{0, 1, 2, 3, 4, 5}) {
		t.Errorf("EachReachable(0) = %v", nodes)
	}
}

func TestEachReaching(t *testing.T) {
	g, idx := buildGraph(t)
	var nodes []int32
	idx.EachReachingByTag(5, g.Tag(0), func(n, d int32) bool {
		nodes = append(nodes, n)
		return true
	})
	if !reflect.DeepEqual(nodes, []int32{0}) {
		t.Errorf("a-ancestors of 5 = %v", nodes)
	}
}

// TestWriteTo: the index writes its part of the canonical stream, headed
// by the magic and its kind.
func TestWriteTo(t *testing.T) {
	_, idx := buildGraph(t)
	body, err := storage.EncodeSectionBody(idx.EncodeStream)
	if err != nil {
		t.Fatal(err)
	}
	if head := storage.Magic + "\x04apex"; len(body) <= len(head) || string(body[:len(head)]) != head {
		t.Errorf("stream = %q", body)
	}
}

func randomGraph(rng *rand.Rand, n, edges int) *lgraph.LGraph {
	b := lgraph.NewBuilder()
	tags := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		b.AddNode(tags[rng.Intn(len(tags))])
	}
	for e := 0; e < edges; e++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Finish()
}

func TestPropertyAgainstBFS(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(35)
		g := randomGraph(rng, n, rng.Intn(2*n))
		idx := Build(g)
		x := int32(rng.Intn(n))
		dist := g.BFSDistances(x, false)
		for y := int32(0); y < int32(n); y++ {
			d, ok := idx.Distance(x, y)
			if ok != (dist[y] >= 0) {
				return false
			}
			if ok && d != dist[y] {
				return false
			}
		}
		// Tag enumeration equals oracle.
		tag := g.Tag(int32(rng.Intn(n)))
		want := make(map[int32]int32)
		for y := int32(0); y < int32(n); y++ {
			if dist[y] >= 0 && g.Tag(y) == tag {
				want[y] = dist[y]
			}
		}
		got := make(map[int32]int32)
		last := int32(-1)
		ordered := true
		idx.EachReachableByTag(x, tag, func(u, d int32) bool {
			if d < last {
				ordered = false
			}
			last = d
			got[u] = d
			return true
		})
		if !ordered || len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyPathExtentAgainstOracle(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(2*n))
		idx := Build(g)
		path := []lgraph.Tag{lgraph.Tag(rng.Intn(4)), lgraph.Tag(rng.Intn(4))}
		// Oracle: nodes v with tag path[1] having a predecessor tagged
		// path[0].
		want := make(map[int32]bool)
		for v := int32(0); v < int32(n); v++ {
			if g.Tag(v) != path[1] {
				continue
			}
			for _, p := range g.Preds(v) {
				if g.Tag(p) == path[0] {
					want[v] = true
					break
				}
			}
		}
		got := idx.PathExtent(path)
		if len(got) != len(want) {
			return false
		}
		for _, v := range got {
			if !want[v] {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestBuildKCoarsens(t *testing.T) {
	// A chain a -> b -> c -> b -> c: full bisimulation separates the two
	// b (and c) occurrences; A(1) merges nodes with equal (tag,
	// predecessor-tag) signatures.
	b := lgraph.NewBuilder()
	for _, tag := range []string{"a", "b", "c", "b", "c"} {
		b.AddNode(tag)
	}
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Finish()
	full := Build(g)
	a1 := BuildK(g, 1)
	if a1.NumClasses() > full.NumClasses() {
		t.Errorf("A(1) has %d classes, full has %d", a1.NumClasses(), full.NumClasses())
	}
	// Full: b-under-a (node 1) differs from b-under-c (node 3).
	if full.Class(1) == full.Class(3) {
		t.Error("full bisimulation merged structurally different b nodes")
	}
	// A(1): node 1 (pred tag a) still differs from node 3 (pred tag c),
	// but the two c nodes (both preceded by b) merge.
	if a1.Class(2) != a1.Class(4) {
		t.Error("A(1) separated c nodes with identical 1-step history")
	}
	if full.Class(2) == full.Class(4) {
		t.Error("full bisimulation merged c nodes with different 2-step history")
	}
}

func TestPropertyBuildKStillExact(t *testing.T) {
	// Element-anchored queries must stay exact at any k: the summary only
	// prunes, the traversal decides.
	cfg := &quick.Config{MaxCount: 15}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(2*n))
		idx := BuildK(g, 1+rng.Intn(2))
		x := int32(rng.Intn(n))
		dist := g.BFSDistances(x, false)
		for y := int32(0); y < int32(n); y++ {
			d, ok := idx.Distance(x, y)
			if ok != (dist[y] >= 0) {
				return false
			}
			if ok && d != dist[y] {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestBitset(t *testing.T) {
	// Class 0 and class 1 of one strided array: the words of one class
	// must not leak into the other's.
	bs := newBitsets(2, 130)
	bs.set(0, 0)
	bs.set(0, 64)
	bs.set(0, 129)
	if !bs.get(0, 0) || !bs.get(0, 64) || !bs.get(0, 129) || bs.get(0, 1) || bs.get(0, 128) {
		t.Error("bitset get/set wrong")
	}
	if bs.get(1, 0) || bs.get(1, 64) || bs.get(1, 129) {
		t.Error("set leaked into the next class")
	}
	bs.set(1, 5)
	if !bs.union(1, 0) {
		t.Error("union should change")
	}
	if !bs.get(1, 0) || !bs.get(1, 129) || !bs.get(1, 5) || bs.get(0, 5) {
		t.Error("union result wrong")
	}
	if bs.union(1, 0) {
		t.Error("second union should not change")
	}
}
