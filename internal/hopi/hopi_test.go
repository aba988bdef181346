package hopi

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/lgraph"
	"repro/internal/storage"
)

// buildGraph constructs the cyclic linked graph
//
//	0:a -> 1:b -> 3:b
//	0:a -> 2:c -> 3
//	3 -> 4:a -> 0   (cycle back to the root)
//	5:c            (isolated)
func buildGraph(t testing.TB) (*lgraph.LGraph, *Index) {
	t.Helper()
	b := lgraph.NewBuilder()
	for _, tag := range []string{"a", "b", "c", "b", "a", "c"} {
		b.AddNode(tag)
	}
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 0}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Finish()
	return g, Build(g)
}

func TestReachableAndDistance(t *testing.T) {
	_, idx := buildGraph(t)
	cases := []struct {
		x, y int32
		dist int32 // -1 = unreachable
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 2}, {0, 4, 3},
		{3, 0, 2},  // through the cycle
		{1, 2, 4},  // 1->3->4->0->2
		{5, 0, -1}, // isolated
		{0, 5, -1}, // isolated
		{4, 4, 0},  // self
		{2, 1, 4},  // 2->3->4->0->1
	}
	for _, c := range cases {
		d, ok := idx.Distance(c.x, c.y)
		if c.dist < 0 {
			if ok {
				t.Errorf("Distance(%d,%d) = %d, want unreachable", c.x, c.y, d)
			}
			if idx.Reachable(c.x, c.y) {
				t.Errorf("Reachable(%d,%d) = true", c.x, c.y)
			}
			continue
		}
		if !ok || d != c.dist {
			t.Errorf("Distance(%d,%d) = %d,%t, want %d", c.x, c.y, d, ok, c.dist)
		}
		if !idx.Reachable(c.x, c.y) {
			t.Errorf("Reachable(%d,%d) = false", c.x, c.y)
		}
	}
}

func TestEachReachableOrder(t *testing.T) {
	_, idx := buildGraph(t)
	var nodes, dists []int32
	idx.EachReachable(0, func(n, d int32) bool {
		nodes = append(nodes, n)
		dists = append(dists, d)
		return true
	})
	wantNodes := []int32{0, 1, 2, 3, 4}
	wantDists := []int32{0, 1, 1, 2, 3}
	if !reflect.DeepEqual(nodes, wantNodes) || !reflect.DeepEqual(dists, wantDists) {
		t.Errorf("EachReachable(0) = %v %v, want %v %v", nodes, dists, wantNodes, wantDists)
	}
}

func TestEachReachableByTag(t *testing.T) {
	g, idx := buildGraph(t)
	var nodes []int32
	idx.EachReachableByTag(0, g.Tag(1), func(n, d int32) bool {
		nodes = append(nodes, n)
		return true
	})
	if !reflect.DeepEqual(nodes, []int32{1, 3}) {
		t.Errorf("b-descendants of 0 = %v", nodes)
	}
	idx.EachReachableByTag(0, lgraph.NoTag, func(n, d int32) bool {
		t.Error("NoTag must match nothing")
		return false
	})
}

func TestEachReaching(t *testing.T) {
	_, idx := buildGraph(t)
	var nodes, dists []int32
	idx.EachReaching(2, func(n, d int32) bool {
		nodes = append(nodes, n)
		dists = append(dists, d)
		return true
	})
	// Ancestors of 2: itself(0), 0(1), 4(2), 3(3), then 1 and 2's other
	// predecessors through the cycle: 1 -> 3 -> 4 -> 0 -> 2 gives 1 at 4.
	wantNodes := []int32{2, 0, 4, 3, 1}
	wantDists := []int32{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(nodes, wantNodes) || !reflect.DeepEqual(dists, wantDists) {
		t.Errorf("EachReaching(2) = %v %v, want %v %v", nodes, dists, wantNodes, wantDists)
	}
}

func TestEarlyStop(t *testing.T) {
	_, idx := buildGraph(t)
	count := 0
	idx.EachReachable(0, func(n, d int32) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop visited %d", count)
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
	if head := storage.Magic + "\x04hopi"; len(body) <= len(head) || string(body[:len(head)]) != head {
		t.Errorf("stream = %q", body)
	}
}

func TestLabelEntriesSmallerThanNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 120, 240)
	pruned := Build(g)
	naive := BuildNaive(g)
	if pruned.LabelEntries() >= naive.LabelEntries() {
		t.Errorf("pruned labels %d >= naive %d; the cover should compress",
			pruned.LabelEntries(), naive.LabelEntries())
	}
}

// randomGraph builds a random directed graph, deterministic in rng.
func randomGraph(rng *rand.Rand, n, edges int) *lgraph.LGraph {
	b := lgraph.NewBuilder()
	tags := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		b.AddNode(tags[rng.Intn(len(tags))])
	}
	for e := 0; e < edges; e++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Finish()
}

// checkAgainstBFS verifies reachability, distances and enumeration order of
// idx against the BFS oracle for a single start node.
func checkAgainstBFS(g *lgraph.LGraph, idx *Index, x int32) bool {
	dist := g.BFSDistances(x, false)
	for y := int32(0); y < int32(g.NumNodes()); y++ {
		d, ok := idx.Distance(x, y)
		if ok != (dist[y] >= 0) {
			return false
		}
		if ok && d != dist[y] {
			return false
		}
	}
	seen := make(map[int32]bool)
	last := int32(-1)
	good := true
	idx.EachReachable(x, func(n, d int32) bool {
		if d < last || dist[n] != d || seen[n] {
			good = false
			return false
		}
		last = d
		seen[n] = true
		return true
	})
	if !good {
		return false
	}
	for y := int32(0); y < int32(g.NumNodes()); y++ {
		if seen[y] != (dist[y] >= 0) {
			return false
		}
	}
	return true
}

func TestPropertyAgainstBFS(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(3*n))
		idx := Build(g)
		for trial := 0; trial < 4; trial++ {
			if !checkAgainstBFS(g, idx, int32(rng.Intn(n))) {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyReverseAgainstBFS(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(3*n))
		idx := Build(g)
		x := int32(rng.Intn(n))
		rdist := g.BFSDistances(x, true)
		seen := make(map[int32]int32)
		idx.EachReaching(x, func(u, d int32) bool {
			seen[u] = d
			return true
		})
		for y := int32(0); y < int32(n); y++ {
			d, ok := seen[y]
			if ok != (rdist[y] >= 0) {
				return false
			}
			if ok && d != rdist[y] {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyPartitionedEqualsWhole(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(3*n))
		parts := 1 + rng.Intn(4)
		part := make([]int32, n)
		for i := range part {
			part[i] = int32(rng.Intn(parts))
		}
		idx := BuildPartitioned(g, part)
		for trial := 0; trial < 4; trial++ {
			if !checkAgainstBFS(g, idx, int32(rng.Intn(n))) {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func serialize(t *testing.T, idx *Index) []byte {
	t.Helper()
	body, err := storage.EncodeSectionBody(idx.EncodeStream)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestPropertyNaiveAgainstBFS(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(2*n))
		idx := BuildNaive(g)
		return checkAgainstBFS(g, idx, int32(rng.Intn(n)))
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestIsolatedNode(t *testing.T) {
	b := lgraph.NewBuilder()
	b.AddNode("a")
	g := b.Finish()
	idx := Build(g)
	if !idx.Reachable(0, 0) {
		t.Error("single node must reach itself")
	}
	if d, ok := idx.Distance(0, 0); !ok || d != 0 {
		t.Errorf("self distance = %d,%t", d, ok)
	}
}
