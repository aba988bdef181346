package tc

import (
	"math/rand"
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
	g, idx := buildDiamond(t)
	loaded, err := reopen(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Pairs() != idx.Pairs() {
		t.Fatalf("pairs: %d vs %d", loaded.Pairs(), idx.Pairs())
	}
	if err := testutil.SameProbes(idx, loaded, g.NumTags()); err != nil {
		t.Fatal(err)
	}
}

func TestReadBodyWrongGraph(t *testing.T) {
	_, idx := buildDiamond(t)
	b := lgraph.NewBuilder()
	b.AddNode("a")
	if _, err := reopen(b.Finish(), idx); err == nil {
		t.Error("OpenSection accepted a mismatched graph")
	}
}

func TestPropertyPersistRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		b := lgraph.NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode("t")
		}
		for e := rng.Intn(2 * n); e > 0; e-- {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Finish()
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
