package flix

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dblp"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// TestAssignMatchesDecompose holds Assign, the router's way to a shard's
// decomposition, to Decompose: for every configuration kind over every
// testutil family and a 300-document DBLP corpus it returns the same
// node→meta-document assignment and meta-document count, its Fingerprint is
// the built index's MetaFingerprint, and it keeps nothing on the collection.
func TestAssignMatchesDecompose(t *testing.T) {
	type corpus struct {
		name     string
		size     int
		generate func() *xmlgraph.Collection
	}
	var corpora []corpus
	for _, fam := range testutil.Families() {
		corpora = append(corpora, corpus{string(fam), 40, func() *xmlgraph.Collection { return testutil.Generate(fam, 5, 14, 20, 30) }})
	}
	corpora = append(corpora, corpus{"dblp", 2000, func() *xmlgraph.Collection { return dblp.Generate(dblp.Scaled(300)).BuildGraph() }})
	for _, cp := range corpora {
		for kind := Naive; kind.valid(); kind++ {
			cfg := Config{Kind: kind, PartitionSize: cp.size, MinTreeDocs: 2}
			name := fmt.Sprintf("%s/%v", cp.name, kind)
			c := cp.generate()
			metaOf, metas, err := Assign(c, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if s := keptSet(c); s != nil {
				t.Errorf("%s: Assign kept a decomposition on the collection", name)
			}
			set, _, err := Decompose(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if metas != len(set.Metas) || !slices.Equal(metaOf, set.MetaOf) {
				t.Errorf("%s: Assign gives %d meta documents, Decompose %d, or another assignment", name, metas, len(set.Metas))
			}
			ix, err := Build(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := Fingerprint(metaOf, metas), fmt.Sprintf("%016x", ix.MetaFingerprint()); got != want || ix.Fingerprint() != want {
				t.Errorf("%s: Assign's fingerprint %s, the index's %s (announced %s)", name, got, want, ix.Fingerprint())
			}
		}
	}
	if _, _, err := Assign(corpora[0].generate(), Config{Kind: ElementLevel + 1}); err == nil {
		t.Error("Assign accepted an unknown configuration kind")
	}
}
