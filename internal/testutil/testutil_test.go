package testutil

import (
	"testing"

	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/xmlgraph"
)

// TestDeterministic verifies the generator's core contract: the same
// (family, seed) pair always produces the identical collection.
func TestDeterministic(t *testing.T) {
	for _, f := range Families() {
		for seed := int64(1); seed <= 3; seed++ {
			a := Generate(f, seed, 8, 40, 15)
			b := Generate(f, seed, 8, 40, 15)
			if a.NumNodes() != b.NumNodes() || a.NumDocs() != b.NumDocs() || a.NumLinks() != b.NumLinks() {
				t.Fatalf("%s seed %d: shapes differ: (%d,%d,%d) vs (%d,%d,%d)",
					f, seed, a.NumNodes(), a.NumDocs(), a.NumLinks(),
					b.NumNodes(), b.NumDocs(), b.NumLinks())
			}
			la, lb := a.Links(), b.Links()
			for i := range la {
				if la[i] != lb[i] {
					t.Fatalf("%s seed %d: link %d differs: %+v vs %+v", f, seed, i, la[i], lb[i])
				}
			}
			for n := 0; n < a.NumNodes(); n++ {
				id := xmlgraph.NodeID(n)
				if a.Tag(id) != b.Tag(id) || a.Parent(id) != b.Parent(id) {
					t.Fatalf("%s seed %d: node %d differs", f, seed, n)
				}
			}
		}
	}
}

// TestFamilyShapes verifies the structural promise of each family on the
// whole-collection local graph.
func TestFamilyShapes(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := func(f Family) *meta.MetaDocument {
			c := Generate(f, seed, 8, 40, 15)
			s := meta.Build(c, partition.Whole(c).Assignment(c))
			if err := s.Validate(); err != nil {
				t.Fatalf("%s seed %d: invalid meta set: %v", f, seed, err)
			}
			if len(s.Metas) != 1 {
				t.Fatalf("%s seed %d: Whole produced %d meta documents", f, seed, len(s.Metas))
			}
			return s.Metas[0]
		}
		if md := g(Trees); !md.Graph.IsForest() {
			t.Errorf("trees seed %d: data graph is not a forest", seed)
		}
		if xmlgraph.ComputeStats(Generate(DAGs, seed, 8, 40, 15)).HasCycle {
			t.Errorf("dags seed %d: data graph has a cycle", seed)
		} else if md := g(DAGs); md.Graph.IsForest() {
			t.Logf("dags seed %d: degenerated to a forest (no shared targets)", seed)
		}
		// Linked collections merely have to be valid; cycles are allowed
		// and the builder must survive them.
		g(Linked)
	}
}
