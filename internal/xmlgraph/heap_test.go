package xmlgraph_test

import (
	"runtime"
	"testing"

	"repro/internal/dblp"
	"repro/internal/testutil"
)

// TestCollectionHeapBudget: the frozen collection of the 6210-document DBLP
// corpus (the benchmark's) retains at most 10 MiB of live heap once the
// generator that fed it is gone, texts, links and per-tag rows included.
// Its elements are pointer-free int32 columns with tags and texts interned
// once each, about 50 B per element in all.
func TestCollectionHeapBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap figures are not meaningful under -race")
	}
	const budget = 10 << 20
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	c := dblp.Generate(dblp.Scaled(6210)).BuildGraph()
	retained := live() - before
	t.Logf("%d elements retain %d B: %.1f B per element", c.NumNodes(), retained, float64(retained)/float64(c.NumNodes()))
	if retained > budget {
		t.Errorf("the collection retains %d B of live heap, budget %d B", retained, budget)
	}
	runtime.KeepAlive(c)
}
