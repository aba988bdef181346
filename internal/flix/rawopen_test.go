package flix

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/apex"
	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/ppo"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// TestRawOpenBytesFlat: a raw ppo or apex section opens as views of its
// bytes, rows included, so opening the section of a graph ten times larger
// allocates the same bytes — the index value — give or take a size class.
// One slice header per row, as the openers once built, grows with the graph.
func TestRawOpenBytesFlat(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const slack = 64 // bytes per open
	// forest is a random forest of n nodes over six tags: depths, tag runs,
	// summary classes and closure rows all grow with n.
	forest := func(n int) *lgraph.LGraph {
		rng := rand.New(rand.NewSource(int64(n)))
		b := lgraph.NewBuilder()
		for v := 0; v < n; v++ {
			b.AddNode(fmt.Sprintf("t%d", rng.Intn(6)))
			if v > 0 {
				b.AddEdge(int32(rng.Intn(v)), int32(v))
			}
		}
		return b.Finish()
	}
	for _, s := range []struct {
		name  string
		build func(*lgraph.LGraph) storage.SectionEncoder
		open  func(*lgraph.LGraph, []byte) (pathindex.Index, error)
	}{
		{"ppo", func(g *lgraph.LGraph) storage.SectionEncoder {
			idx, err := ppo.Build(g)
			if err != nil {
				t.Fatal(err)
			}
			return idx
		}, ppo.OpenSection},
		{"apex", func(g *lgraph.LGraph) storage.SectionEncoder { return apex.Build(g) }, apex.OpenSection},
	} {
		bytesPerOpen := func(n int) uint64 {
			g := forest(n)
			body, err := storage.EncodeSectionBody(s.build(g).EncodeSection)
			if err != nil {
				t.Fatal(err)
			}
			const opens = 50
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for range opens {
				if _, err := s.open(g, body); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / opens
		}
		small, large := bytesPerOpen(60), bytesPerOpen(600)
		t.Logf("%s: %d B per open at 60 nodes, %d B at 600", s.name, small, large)
		if large > small+slack {
			t.Errorf("%s: opening the section of 600 nodes allocates %d B, of 60 nodes %d B; want the same within %d B",
				s.name, large, small, slack)
		}
	}
}
