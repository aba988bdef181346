package tc

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/lgraph"
	"repro/internal/storage"
)

func buildDiamond(t testing.TB) (*lgraph.LGraph, *Index) {
	t.Helper()
	b := lgraph.NewBuilder()
	for _, tag := range []string{"a", "b", "c", "b"} {
		b.AddNode(tag)
	}
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Finish()
	return g, Build(g)
}

func TestReachableDistance(t *testing.T) {
	_, idx := buildDiamond(t)
	if !idx.Reachable(0, 3) || idx.Reachable(3, 0) {
		t.Error("reachability wrong")
	}
	if d, ok := idx.Distance(0, 3); !ok || d != 2 {
		t.Errorf("Distance(0,3) = %d,%t", d, ok)
	}
	if d, ok := idx.Distance(1, 1); !ok || d != 0 {
		t.Errorf("Distance(1,1) = %d,%t", d, ok)
	}
	if _, ok := idx.Distance(1, 2); ok {
		t.Error("1 must not reach 2")
	}
}

func TestPairs(t *testing.T) {
	_, idx := buildDiamond(t)
	// 0: {0,1,2,3}, 1: {1,3}, 2: {2,3}, 3: {3} => 9 pairs.
	if got := idx.Pairs(); got != 9 {
		t.Errorf("Pairs = %d, want 9", got)
	}
}

func TestEnumeration(t *testing.T) {
	g, idx := buildDiamond(t)
	var nodes, dists []int32
	idx.EachReachable(0, func(n, d int32) bool {
		nodes = append(nodes, n)
		dists = append(dists, d)
		return true
	})
	if !reflect.DeepEqual(nodes, []int32{0, 1, 2, 3}) || !reflect.DeepEqual(dists, []int32{0, 1, 1, 2}) {
		t.Errorf("EachReachable = %v %v", nodes, dists)
	}
	nodes = nil
	idx.EachReachableByTag(0, g.Tag(1), func(n, d int32) bool {
		nodes = append(nodes, n)
		return true
	})
	if !reflect.DeepEqual(nodes, []int32{1, 3}) {
		t.Errorf("EachReachableByTag = %v", nodes)
	}
	nodes = nil
	idx.EachReaching(3, func(n, d int32) bool {
		nodes = append(nodes, n)
		return true
	})
	if !reflect.DeepEqual(nodes, []int32{3, 1, 2, 0}) {
		t.Errorf("EachReaching(3) = %v", nodes)
	}
	nodes = nil
	idx.EachReachingByTag(3, g.Tag(0), func(n, d int32) bool {
		nodes = append(nodes, n)
		return true
	})
	if !reflect.DeepEqual(nodes, []int32{0}) {
		t.Errorf("EachReachingByTag(3, a) = %v", nodes)
	}
}

// TestWriteTo: the index writes its part of the canonical stream, headed
// by the magic and its kind.
func TestWriteTo(t *testing.T) {
	_, idx := buildDiamond(t)
	body, err := storage.EncodeSectionBody(idx.EncodeStream)
	if err != nil {
		t.Fatal(err)
	}
	if head := storage.Magic + "\x02tc"; len(body) <= len(head) || string(body[:len(head)]) != head {
		t.Errorf("stream = %q", body)
	}
}

func TestPropertyMatchesBFS(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := lgraph.NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode("t")
		}
		for e := rng.Intn(3 * n); e > 0; e-- {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Finish()
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
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
