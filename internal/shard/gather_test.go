package shard

import (
	"math/rand"
	"slices"
	"testing"
)

// TestKthSmallest holds the selection the top-k bound is read from to a
// sort, on lengths 1 to 40 over few and many distinct distances — runs of
// equal distances are the common case.
func TestKthSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 40; n++ {
		for _, spread := range []int32{1, 3, 100} {
			a := make([]int32, n)
			for i := range a {
				a[i] = rng.Int31n(spread)
			}
			sorted := slices.Clone(a)
			slices.Sort(sorted)
			for k := 0; k < n; k++ {
				b := slices.Clone(a)
				if got := kthSmallest(b, k); got != sorted[k] {
					t.Fatalf("kthSmallest(%v, %d) = %d, want %d", a, k, got, sorted[k])
				}
			}
		}
	}
}
