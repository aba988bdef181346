package ppo

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
	g, idx := buildTree(t)
	loaded, err := reopen(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := testutil.SameProbes(idx, loaded, g.NumTags()); err != nil {
		t.Fatal(err)
	}
	for x := int32(0); x < int32(g.NumNodes()); x++ {
		if idx.SubtreeSize(x) != loaded.SubtreeSize(x) {
			t.Errorf("SubtreeSize(%d): %d vs %d", x, idx.SubtreeSize(x), loaded.SubtreeSize(x))
		}
	}
}

func TestReadBodyWrongGraph(t *testing.T) {
	_, idx := buildTree(t)
	small := randomForest(rand.New(rand.NewSource(1)), 3)
	if _, err := reopen(small, idx); err == nil {
		t.Error("OpenSection accepted a mismatched graph")
	}
}

func TestPropertyPersistRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomForest(rng, 2+rng.Intn(40))
		idx, err := Build(g)
		if err != nil {
			return false
		}
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
