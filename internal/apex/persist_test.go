package apex

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/lgraph"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// reopen persists idx the way a snapshot does — EncodeSection — and opens
// the bytes back over g.
func reopen(g *lgraph.LGraph, idx *Index) (*Index, error) {
	body, err := storage.EncodeSectionBody(idx.EncodeSection)
	if err != nil {
		return nil, err
	}
	pi, err := OpenSection(g, body)
	if err != nil {
		return nil, err
	}
	return pi.(*Index), nil
}

func TestReadBodyRoundTrip(t *testing.T) {
	g, idx := buildGraph(t)
	loaded, err := reopen(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumClasses() != idx.NumClasses() {
		t.Fatalf("classes: %d vs %d", loaded.NumClasses(), idx.NumClasses())
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if loaded.Class(v) != idx.Class(v) {
			t.Fatalf("Class(%d) differs", v)
		}
	}
	for _, path := range [][]string{{"a", "b", "c"}, {"b", "c"}, {"b"}} {
		if a, b := idx.PathExtent(path), loaded.PathExtent(path); !slices.Equal(a, b) {
			t.Fatalf("PathExtent(%v): %v vs %v", path, a, b)
		}
	}
	if err := testutil.SameProbes(idx, loaded, g.NumTags()); err != nil {
		t.Fatal(err)
	}
}

func TestReadBodyWrongGraph(t *testing.T) {
	_, idx := buildGraph(t)
	b := lgraph.NewBuilder()
	b.AddNode("a")
	if _, err := reopen(b.Finish(), idx); err == nil {
		t.Error("OpenSection accepted a mismatched graph")
	}
}

// TestOpenSectionCorrupt truncates a raw section everywhere and flips every byte: a
// truncation must be rejected, and a flip must be rejected or yield an index
// whose probes stay in bounds — never a panic.
func TestOpenSectionCorrupt(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(4)), 30, 50)
	body, err := storage.EncodeSectionBody(Build(g).EncodeSection)
	if err != nil {
		t.Fatal(err)
	}
	err = testutil.DamageSection(body, func(b []byte) (storage.Probe, error) { return OpenSection(g, b) })
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPersistRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(2*n))
		idx := Build(g)
		loaded, err := reopen(g, idx)
		if err != nil {
			return false
		}
		if err := testutil.SameProbes(idx, loaded, g.NumTags()); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
