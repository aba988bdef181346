package partition

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dblp"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// sameResult reports the first difference between two partitionings.
func sameResult(got, want *Result) error {
	if !slices.Equal(got.PartOf, want.PartOf) {
		return fmt.Errorf("PartOf differs")
	}
	if !slices.Equal(got.IncludedLinks, want.IncludedLinks) {
		return fmt.Errorf("IncludedLinks differs")
	}
	if len(got.Parts) != len(want.Parts) {
		return fmt.Errorf("%d parts, reference %d", len(got.Parts), len(want.Parts))
	}
	for i := range got.Parts {
		if !slices.Equal(got.Parts[i], want.Parts[i]) {
			return fmt.Errorf("part %d = %v, reference %v", i, got.Parts[i], want.Parts[i])
		}
	}
	return nil
}

// TestPartitionersMatchReference compares every rewritten partitioner with
// its frozen predecessor (reference_test.go): Parts, PartOf and
// IncludedLinks must be equal on every collection family, on the synthetic
// DBLP corpus at three scales, and across size bounds from 50 (where the
// packing scan dominates: most parts are closed by it) to unbounded.
func TestPartitionersMatchReference(t *testing.T) {
	type corpus struct {
		name string
		c    *xmlgraph.Collection
	}
	var corpora []corpus
	for _, f := range testutil.Families() {
		for seed := int64(1); seed <= 6; seed++ {
			corpora = append(corpora, corpus{
				fmt.Sprintf("%s/seed=%d", f, seed),
				testutil.Generate(f, seed, 40+int(seed)*15, 30, 120),
			})
		}
	}
	for _, docs := range []int{200, 1200, 6210} {
		if docs > 200 && testing.Short() {
			continue
		}
		corpora = append(corpora, corpus{fmt.Sprintf("dblp/%d", docs), dblp.Generate(dblp.Scaled(docs)).BuildGraph()})
	}
	for _, co := range corpora {
		if err := sameResult(TreePartitions(co.c), referenceTreePartitions(co.c)); err != nil {
			t.Errorf("%s: TreePartitions: %v", co.name, err)
		}
		for _, maxNodes := range []int{50, 500, 2000, 5000, 0} {
			if err := sameResult(SizeBounded(co.c, maxNodes), referenceSizeBounded(co.c, maxNodes)); err != nil {
				t.Errorf("%s: SizeBounded(%d): %v", co.name, maxNodes, err)
			}
			for _, minTreeDocs := range []int{2, 4} {
				if err := sameResult(Hybrid(co.c, maxNodes, minTreeDocs), referenceHybrid(co.c, maxNodes, minTreeDocs)); err != nil {
					t.Errorf("%s: Hybrid(%d, %d): %v", co.name, maxNodes, minTreeDocs, err)
				}
			}
		}
	}
}
