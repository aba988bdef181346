package ppo_test

import (
	"testing"

	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/ppo"
	"repro/internal/storage"
)

// fuzzForests are the graphs FuzzOpenCompressedSection opens sections over:
// testutil forest meta documents and random forests numbered out of node
// order.
func fuzzForests() []*lgraph.LGraph {
	var out []*lgraph.LGraph
	for i, lc := range familyForests() {
		if i%16 == 0 {
			out = append(out, lc.g)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		out = append(out, randomCase(seed, 40+90*int(seed), 0).g)
	}
	return out
}

// FuzzOpenCompressedSection feeds mutated ppo-c bodies to the opener over a
// fixed graph: mutated counts, widths, directory bytes and payload must
// either fail to open or give a view that survives TestCompressedSectionCorrupt's
// probe loop — reachability, both enumerations and a budgeted ancestor walk
// — without a panic.
func FuzzOpenCompressedSection(f *testing.F) {
	graphs := fuzzForests()
	for i, g := range graphs {
		idx, err := ppo.Build(g)
		if err != nil {
			f.Fatal(err)
		}
		body, err := storage.EncodeSectionBody(idx.EncodeCompressedSection)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), body)
		if i == 0 {
			f.Add(uint8(i), ppo.WithoutDerived(body))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		g := graphs[int(which)%len(graphs)]
		pi, err := ppo.OpenCompressedSection(g, body)
		if err != nil {
			return
		}
		n := int32(g.NumNodes())
		for x := int32(0); x < n; x += 7 {
			pi.Reachable(x, (x*13)%n)
			pi.EachReachable(x, func(int32, int32) bool { return true })
			pi.EachReachableByTag(x, 1, func(int32, int32) bool { return true })
			// A forged parent encoding may cycle; real files are checksummed.
			steps := 0
			pi.EachReaching(x, func(int32, int32) bool {
				steps++
				return steps <= int(n)
			})
			if rg, ok := pi.(pathindex.Regioner); ok {
				rg.Region(x)
				rg.Depth(x)
			}
		}
	})
}
