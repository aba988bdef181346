package hopi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// reopen persists idx the way a snapshot does — EncodeSection — and opens
// the bytes back over g.
func reopen(g *lgraph.LGraph, idx *Index) (pathindex.Index, error) {
	body, err := storage.EncodeSectionBody(idx.EncodeSection)
	if err != nil {
		return nil, err
	}
	return OpenSection(g, body)
}

func TestReadBodyRoundTrip(t *testing.T) {
	g, idx := buildGraph(t)
	loaded, err := reopen(g, idx)
	if err != nil {
		t.Fatal(err)
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

// TestReadBodyCorrupt truncates a raw section everywhere and flips every byte: a
// truncation must be rejected, and a flip must be rejected or yield an index
// whose probes stay in bounds — never a panic.
func TestReadBodyCorrupt(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 40, 90)
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
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(3*n))
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
