package hopi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/csr"
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

// TestReadBodyCorrupt truncates a section everywhere and flips every byte: a
// truncation must be rejected, and a flip must be rejected or yield an index
// whose probes stay in bounds — never a panic.  The forged runs are
// TestCompressedSectionCorrupt's.
func TestReadBodyCorrupt(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 40, 90)
	body, err := storage.EncodeSectionBody(Build(g).EncodeSection)
	if err != nil {
		t.Fatal(err)
	}
	err = testutil.DamageSection(body, func(b []byte) (pathindex.Index, error) { return OpenSection(g, b) })
	if err != nil {
		t.Fatal(err)
	}
}

// longRun returns the first run past run 0 holding at least two entries.
func longRun(runs [][]entry) int {
	for i := 1; i < len(runs); i++ {
		if len(runs[i]) >= 2 {
			return i
		}
	}
	panic("no run holds two entries")
}

// forged holds an index's label and posting rows as slices a forgery can
// grow.
type forged struct{ in, out, hubIn, hubOut [][]entry }

// rowsOf copies rows into growable slices.
func rowsOf(r csr.Rows[entry]) [][]entry {
	rows := make([][]entry, r.Len())
	for i := range rows {
		rows[i] = slices.Clone(r.Row(int32(i)))
	}
	return rows
}

// forgeries are runs no build emits.  Each is applied to a fresh build and
// encoded through the ordinary encoder, so the offset tables and lengths
// are consistent and only the decoded values are wrong.
var forgeries = []struct {
	name  string
	forge func(idx *forged, n int32)
}{
	{"label hub n", func(idx *forged, n int32) { idx.in[0] = append(idx.in[0], entry{hub: n, dist: 1}) }},
	{"negative label hub", func(idx *forged, n int32) { idx.out[0] = append([]entry{{hub: -1, dist: 1}}, idx.out[0]...) }},
	{"repeated label hub", func(idx *forged, n int32) {
		h := longRun(idx.in)
		idx.in[h] = append(idx.in[h], idx.in[h][len(idx.in[h])-1])
	}},
	{"descending label hubs", func(idx *forged, n int32) {
		l := idx.out[longRun(idx.out)]
		l[0], l[1] = l[1], l[0]
	}},
	{"label distance n", func(idx *forged, n int32) { idx.out[0][0].dist = n }},
	{"label distance MaxInt32", func(idx *forged, n int32) { idx.in[0][0].dist = math.MaxInt32 }},
	{"negative label distance", func(idx *forged, n int32) { idx.in[0][0].dist = -1 }},
	{"posting node n", func(idx *forged, n int32) {
		p := idx.hubIn[0]
		idx.hubIn[0] = append(p, entry{hub: n, dist: p[len(p)-1].dist + 1})
	}},
	{"posting distance MaxInt32", func(idx *forged, n int32) {
		p := idx.hubOut[0]
		idx.hubOut[0] = append(p, entry{hub: 0, dist: math.MaxInt32})
	}},
	{"repeated posting", func(idx *forged, n int32) {
		h := longRun(idx.hubIn)
		idx.hubIn[h] = append(idx.hubIn[h], idx.hubIn[h][len(idx.hubIn[h])-1])
	}},
	{"postings out of order", func(idx *forged, n int32) {
		// Run h opens with (h, 0); (h-1, 0) after it regresses the node.
		p := idx.hubOut[longRun(idx.hubOut)]
		p[1] = entry{hub: p[0].hub - 1, dist: p[0].dist}
	}},
}

// rejectForgedRuns encodes every forgery over g, and a section with one
// byte past its last run, and requires the opener to refuse each with
// storage.ErrCorrupt.
func rejectForgedRuns(g *lgraph.LGraph) error {
	reject := func(name string, idx *Index, extra ...byte) error {
		body, err := storage.EncodeSectionBody(idx.EncodeSection)
		if err != nil {
			return err
		}
		if _, err := OpenSection(g, append(body, extra...)); !errors.Is(err, storage.ErrCorrupt) {
			return fmt.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		return nil
	}
	for _, f := range forgeries {
		idx := Build(g)
		fg := &forged{rowsOf(idx.in), rowsOf(idx.out), rowsOf(idx.hubIn), rowsOf(idx.hubOut)}
		f.forge(fg, int32(g.NumNodes()))
		idx.in, idx.out, idx.hubIn, idx.hubOut = flatten(fg.in), flatten(fg.out), flatten(fg.hubIn), flatten(fg.hubOut)
		if err := reject(f.name, idx); err != nil {
			return err
		}
	}
	return reject("trailing byte", Build(g), 0)
}

// fuzzGraph is the small random graph FuzzOpenSection opens sections over.
func fuzzGraph(seed int64) *lgraph.LGraph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(24)
	return randomGraph(rng, n, rng.Intn(3*n))
}

// FuzzOpenSection feeds the opener arbitrary bytes over a small graph.  It
// may not panic, and an accepted section must answer every probe from
// every node, with no negative distance.
func FuzzOpenSection(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		body, err := storage.EncodeSectionBody(Build(fuzzGraph(seed)).EncodeSection)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed, body)
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		g := fuzzGraph(seed)
		pi, err := OpenSection(g, data)
		if err != nil {
			return
		}
		n := int32(g.NumNodes())
		visit := func(node, dist int32) bool {
			if node < 0 || node >= n || dist < 0 {
				t.Fatalf("enumerated (%d, %d)", node, dist)
			}
			return true
		}
		for x := int32(0); x < n; x++ {
			for y := int32(0); y < n; y++ {
				if d, ok := pi.Distance(x, y); d < 0 || ok != pi.Reachable(x, y) {
					t.Fatalf("Distance(%d, %d) = %d, %t", x, y, d, ok)
				}
			}
			pi.EachReachable(x, visit)
			pi.EachReaching(x, visit)
			for tag := lgraph.Tag(-1); int(tag) <= g.NumTags(); tag++ {
				pi.EachReachableByTag(x, tag, visit)
				pi.EachReachingByTag(x, tag, visit)
			}
		}
	})
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
