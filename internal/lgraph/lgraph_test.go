package lgraph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func buildDiamond(t testing.TB) *LGraph {
	t.Helper()
	b := NewBuilder()
	// 0:a -> 1:b, 0 -> 2:c, 1 -> 3:b, 2 -> 3
	for _, tag := range []string{"a", "b", "c", "b"} {
		b.AddNode(tag)
	}
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	return b.Finish()
}

func TestBasics(t *testing.T) {
	g := buildDiamond(t)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if !reflect.DeepEqual(g.Succs(0), []int32{1, 2}) {
		t.Errorf("Succs(0) = %v", g.Succs(0))
	}
	if !reflect.DeepEqual(g.Preds(3), []int32{1, 2}) {
		t.Errorf("Preds(3) = %v", g.Preds(3))
	}
	if len(g.Succs(3)) != 0 {
		t.Errorf("Succs(3) = %v", g.Succs(3))
	}
	if g.OutDegree(0) != 2 || g.InDegree(3) != 2 || g.InDegree(0) != 0 {
		t.Error("degrees wrong")
	}
}

func TestTags(t *testing.T) {
	g := buildDiamond(t)
	if g.NumTags() != 3 {
		t.Fatalf("NumTags = %d", g.NumTags())
	}
	if g.TagName(g.Tag(3)) != "b" {
		t.Errorf("Tag(3) = %q", g.TagName(g.Tag(3)))
	}
	if g.TagOf("c") != g.Tag(2) {
		t.Error("TagOf(c) mismatch")
	}
	if g.TagOf("zzz") != NoTag {
		t.Error("unknown tag should be NoTag")
	}
	if !reflect.DeepEqual(g.TagHistogram(), []int{1, 2, 1}) {
		t.Errorf("TagHistogram = %v", g.TagHistogram())
	}
}

func TestRootsForestCycle(t *testing.T) {
	g := buildDiamond(t)
	if !reflect.DeepEqual(g.Roots(), []int32{0}) {
		t.Errorf("Roots = %v", g.Roots())
	}
	if g.IsForest() {
		t.Error("diamond is not a forest")
	}
	if g.HasCycle() {
		t.Error("diamond has no cycle")
	}

	b := NewBuilder()
	b.AddNode("a")
	b.AddNode("b")
	b.AddEdge(0, 1)
	tree := b.Finish()
	if !tree.IsForest() || tree.HasCycle() {
		t.Error("simple tree misclassified")
	}

	b2 := NewBuilder()
	b2.AddNode("a")
	b2.AddNode("b")
	b2.AddEdge(0, 1)
	b2.AddEdge(1, 0)
	cyc := b2.Finish()
	if cyc.IsForest() {
		t.Error("cycle classified as forest")
	}
	if !cyc.HasCycle() {
		t.Error("cycle not detected")
	}
}

func TestBFSDistances(t *testing.T) {
	g := buildDiamond(t)
	d := g.BFSDistances(0, false)
	if !reflect.DeepEqual(d, []int32{0, 1, 1, 2}) {
		t.Errorf("forward BFS = %v", d)
	}
	r := g.BFSDistances(3, true)
	if !reflect.DeepEqual(r, []int32{2, 1, 1, 0}) {
		t.Errorf("reverse BFS = %v", r)
	}
}

func TestAddEdgePanics(t *testing.T) {
	b := NewBuilder()
	b.AddNode("a")
	defer func() {
		if recover() == nil {
			t.Error("AddEdge out of range must panic")
		}
	}()
	b.AddEdge(0, 5)
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder().Finish()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Error("empty graph wrong")
	}
	if !g.IsForest() || g.HasCycle() {
		t.Error("empty graph classification wrong")
	}
	if len(g.Roots()) != 0 {
		t.Error("empty graph has roots")
	}
}

func TestPropertyForwardReverseBFSAgree(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode("t")
		}
		for e := rng.Intn(3 * n); e > 0; e-- {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Finish()
		x := int32(rng.Intn(n))
		y := int32(rng.Intn(n))
		// dist(x->y) forward from x equals dist(x->y) reverse from y.
		return g.BFSDistances(x, false)[y] == g.BFSDistances(y, true)[x]
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// referenceBuildCSR is the adjacency construction Finish used before it
// became comparison-free (commit 6c3dce6): bucket the edges, then sort every
// run.  Frozen as the differential reference for the transposition scheme.
func referenceBuildCSR(n int, from, to []int32) (off, targets []int32) {
	off = make([]int32, n+1)
	for _, u := range from {
		off[u+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	targets = make([]int32, len(from))
	cursor := make([]int32, n)
	copy(cursor, off[:n])
	for i, u := range from {
		targets[cursor[u]] = to[i]
		cursor[u]++
	}
	for u := 0; u < n; u++ {
		run := targets[off[u]:off[u+1]]
		sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
	}
	return off, targets
}

// TestAdjacencyMatchesReference checks on random multigraphs — parallel
// edges and self-loops included — that both adjacencies come out exactly as
// the sorting construction built them: same offsets, same ascending runs.
func TestAdjacencyMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode("t")
		}
		var from, to []int32
		for e := rng.Intn(5 * n); e > 0; e-- {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			from, to = append(from, u), append(to, v)
			b.AddEdge(u, v)
		}
		g := b.Finish()
		off, adj := referenceBuildCSR(n, from, to)
		roff, radj := referenceBuildCSR(n, to, from)
		if !slices.Equal(g.adjOff, off) || !slices.Equal(g.adjTargets, adj) {
			t.Fatalf("seed %d: successors (%v, %v), reference (%v, %v)", seed, g.adjOff, g.adjTargets, off, adj)
		}
		if !slices.Equal(g.radjOff, roff) || !slices.Equal(g.radjTargets, radj) {
			t.Fatalf("seed %d: predecessors (%v, %v), reference (%v, %v)", seed, g.radjOff, g.radjTargets, roff, radj)
		}
	}
}
