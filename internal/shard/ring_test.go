package shard

import "testing"

// TestRingDeterministic checks that two rings built from the same
// parameters agree on every assignment — the property that lets the router
// and every shard derive ownership independently.
func TestRingDeterministic(t *testing.T) {
	a := NewRing(5, 64)
	b := NewRing(5, 64)
	for mi := int32(0); mi < 2000; mi++ {
		if a.Owner(mi) != b.Owner(mi) {
			t.Fatalf("meta %d: owners %d vs %d from identical rings", mi, a.Owner(mi), b.Owner(mi))
		}
	}
}

// TestRingCoverage checks that every shard owns a reasonable share: no
// shard starves and no shard hoards with the default vnode count.
func TestRingCoverage(t *testing.T) {
	const shards, metas = 4, 4000
	r := NewRing(shards, 0)
	if r.VNodes() != DefaultVNodes {
		t.Fatalf("VNodes() = %d, want default %d", r.VNodes(), DefaultVNodes)
	}
	counts := make([]int, shards)
	for mi := int32(0); mi < metas; mi++ {
		o := r.Owner(mi)
		if o < 0 || o >= shards {
			t.Fatalf("meta %d: owner %d out of range", mi, o)
		}
		counts[o]++
	}
	for s, n := range counts {
		if n < metas/shards/4 || n > metas/shards*4 {
			t.Fatalf("shard %d owns %d of %d metas — distribution badly skewed: %v", s, n, metas, counts)
		}
	}
}

// TestRingSmallCollections checks distribution quality where it is easiest
// to lose: collections with only a handful of meta documents.  Sequential
// meta IDs hash to near-identical FNV values; without a finalizing mixer
// they all land on one arc and a 3-shard cluster degenerates to one shard
// doing all the work (a regression this test pins down).
func TestRingSmallCollections(t *testing.T) {
	for _, shards := range []int{2, 3, 4} {
		for _, metas := range []int{10, 20, 50} {
			r := NewRing(shards, 0)
			counts := make([]int, shards)
			for mi := 0; mi < metas; mi++ {
				counts[r.Owner(int32(mi))]++
			}
			nonEmpty := 0
			for _, n := range counts {
				if n > 0 {
					nonEmpty++
				}
			}
			if nonEmpty < 2 {
				t.Errorf("%d shards / %d metas: ownership collapsed to one shard: %v", shards, metas, counts)
			}
			for s, n := range counts {
				if n > metas*9/10 {
					t.Errorf("%d shards / %d metas: shard %d owns >90%% (%d): %v", shards, metas, s, n, counts)
				}
			}
		}
	}
}

// TestRingOwnedByMatchesOwner checks the mask helper against the point
// lookup.
func TestRingOwnedByMatchesOwner(t *testing.T) {
	r := NewRing(3, 16)
	for s := 0; s < 3; s++ {
		mask := r.OwnedBy(s, 500)
		for mi, owned := range mask {
			if owned != (r.Owner(int32(mi)) == s) {
				t.Fatalf("shard %d meta %d: mask %v, Owner %d", s, mi, owned, r.Owner(int32(mi)))
			}
		}
	}
}

// TestRingDisjointExhaustive checks that ownership partitions the meta
// space: every meta document has exactly one owner.
func TestRingDisjointExhaustive(t *testing.T) {
	r := NewRing(4, 32)
	for mi := 0; mi < 1000; mi++ {
		owners := 0
		for s := 0; s < 4; s++ {
			if r.Owner(int32(mi)) == s {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("meta %d has %d owners", mi, owners)
		}
	}
}
