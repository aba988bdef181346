package ppo

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

// buildTree constructs the forest
//
//	0:a
//	├─ 1:b
//	│   ├─ 3:c
//	│   └─ 4:b
//	└─ 2:c
//	5:a (second root)
//	└─ 6:b
func buildTree(t testing.TB) (*lgraph.LGraph, *Index) {
	t.Helper()
	b := lgraph.NewBuilder()
	for _, tag := range []string{"a", "b", "c", "c", "b", "a", "b"} {
		b.AddNode(tag)
	}
	edges := [][2]int32{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {5, 6}}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Finish()
	idx, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, idx
}

func TestReachable(t *testing.T) {
	_, idx := buildTree(t)
	cases := []struct {
		x, y int32
		want bool
	}{
		{0, 0, true}, {0, 1, true}, {0, 3, true}, {0, 4, true}, {0, 2, true},
		{1, 3, true}, {1, 2, false}, {2, 3, false}, {3, 0, false},
		{0, 5, false}, {5, 6, true}, {6, 5, false}, {0, 6, false},
	}
	for _, c := range cases {
		if got := idx.Reachable(c.x, c.y); got != c.want {
			t.Errorf("Reachable(%d, %d) = %t, want %t", c.x, c.y, got, c.want)
		}
	}
}

func TestDistance(t *testing.T) {
	_, idx := buildTree(t)
	if d, ok := idx.Distance(0, 3); !ok || d != 2 {
		t.Errorf("Distance(0,3) = %d,%t", d, ok)
	}
	if d, ok := idx.Distance(0, 0); !ok || d != 0 {
		t.Errorf("Distance(0,0) = %d,%t", d, ok)
	}
	if _, ok := idx.Distance(3, 0); ok {
		t.Error("Distance(3,0) should be unreachable")
	}
}

func TestEachReachableOrder(t *testing.T) {
	_, idx := buildTree(t)
	var nodes []int32
	var dists []int32
	idx.EachReachable(0, func(n, d int32) bool {
		nodes = append(nodes, n)
		dists = append(dists, d)
		return true
	})
	wantNodes := []int32{0, 1, 2, 3, 4}
	wantDists := []int32{0, 1, 1, 2, 2}
	if !reflect.DeepEqual(nodes, wantNodes) || !reflect.DeepEqual(dists, wantDists) {
		t.Errorf("EachReachable(0) = %v %v, want %v %v", nodes, dists, wantNodes, wantDists)
	}
}

func TestEachReachableEarlyStop(t *testing.T) {
	_, idx := buildTree(t)
	count := 0
	idx.EachReachable(0, func(n, d int32) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d nodes, want 2", count)
	}
}

func TestEachReachableByTag(t *testing.T) {
	g, idx := buildTree(t)
	var got []int32
	idx.EachReachableByTag(0, g.Tag(1), func(n, d int32) bool {
		got = append(got, n)
		return true
	})
	if !reflect.DeepEqual(got, []int32{1, 4}) {
		t.Errorf("b-descendants of 0 = %v, want [1 4]", got)
	}
	// Self inclusion: a at node 0.
	got = nil
	idx.EachReachableByTag(0, g.Tag(0), func(n, d int32) bool {
		got = append(got, n)
		return true
	})
	if !reflect.DeepEqual(got, []int32{0}) {
		t.Errorf("a-descendants-or-self of 0 = %v, want [0]", got)
	}
	// Unknown tag: nothing.
	idx.EachReachableByTag(0, lgraph.NoTag, func(n, d int32) bool {
		t.Error("NoTag must match nothing")
		return false
	})
}

func TestEachReaching(t *testing.T) {
	_, idx := buildTree(t)
	var nodes, dists []int32
	idx.EachReaching(3, func(n, d int32) bool {
		nodes = append(nodes, n)
		dists = append(dists, d)
		return true
	})
	if !reflect.DeepEqual(nodes, []int32{3, 1, 0}) || !reflect.DeepEqual(dists, []int32{0, 1, 2}) {
		t.Errorf("EachReaching(3) = %v %v", nodes, dists)
	}
}

func TestEachReachingByTag(t *testing.T) {
	g, idx := buildTree(t)
	var nodes []int32
	idx.EachReachingByTag(3, g.Tag(0), func(n, d int32) bool {
		nodes = append(nodes, n)
		return true
	})
	if !reflect.DeepEqual(nodes, []int32{0}) {
		t.Errorf("a-ancestors of 3 = %v, want [0]", nodes)
	}
}

func TestNotForest(t *testing.T) {
	b := lgraph.NewBuilder()
	b.AddNode("a")
	b.AddNode("b")
	b.AddNode("c")
	b.AddEdge(0, 2)
	b.AddEdge(1, 2) // two parents
	if _, err := Build(b.Finish()); err != ErrNotForest {
		t.Errorf("Build on DAG: err = %v, want ErrNotForest", err)
	}
	// Pure cycle, no roots.
	b2 := lgraph.NewBuilder()
	b2.AddNode("a")
	b2.AddNode("b")
	b2.AddEdge(0, 1)
	b2.AddEdge(1, 0)
	if _, err := Build(b2.Finish()); err != ErrNotForest {
		t.Errorf("Build on cycle: err = %v, want ErrNotForest", err)
	}
}

// TestWriteTo: the index writes its part of the canonical stream, headed
// by the magic and its kind.
func TestWriteTo(t *testing.T) {
	_, idx := buildTree(t)
	body, err := storage.EncodeSectionBody(idx.EncodeStream)
	if err != nil {
		t.Fatal(err)
	}
	if head := storage.Magic + "\x03ppo"; len(body) <= len(head) || string(body[:len(head)]) != head {
		t.Errorf("stream = %q", body)
	}
}

// randomForest builds a random forest lgraph, deterministic in rng.
func randomForest(rng *rand.Rand, n int) *lgraph.LGraph {
	b := lgraph.NewBuilder()
	tags := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		b.AddNode(tags[rng.Intn(len(tags))])
		if i > 0 && rng.Intn(8) != 0 { // some nodes stay roots
			b.AddEdge(int32(rng.Intn(i)), int32(i))
		}
	}
	return b.Finish()
}

func TestPropertyAgainstBFS(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomForest(rng, 2+rng.Intn(60))
		idx, err := Build(g)
		if err != nil {
			return false
		}
		x := int32(rng.Intn(g.NumNodes()))
		dist := g.BFSDistances(x, false)
		for y := int32(0); y < int32(g.NumNodes()); y++ {
			if idx.Reachable(x, y) != (dist[y] >= 0) {
				return false
			}
			if d, ok := idx.Distance(x, y); ok && d != dist[y] {
				return false
			}
		}
		// EachReachable yields exactly the BFS-reachable set in
		// non-decreasing distance order.
		seen := make(map[int32]bool)
		last := int32(-1)
		okOrder := true
		idx.EachReachable(x, func(n, d int32) bool {
			if d < last || dist[n] != d {
				okOrder = false
				return false
			}
			last = d
			seen[n] = true
			return true
		})
		if !okOrder {
			return false
		}
		for y := int32(0); y < int32(g.NumNodes()); y++ {
			if seen[y] != (dist[y] >= 0) {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyAncestors(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomForest(rng, 2+rng.Intn(40))
		idx, err := Build(g)
		if err != nil {
			return false
		}
		x := int32(rng.Intn(g.NumNodes()))
		rdist := g.BFSDistances(x, true)
		seen := make(map[int32]int32)
		idx.EachReaching(x, func(n, d int32) bool {
			seen[n] = d
			return true
		})
		for y := int32(0); y < int32(g.NumNodes()); y++ {
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

var _ pathindex.Index = (*Index)(nil)
