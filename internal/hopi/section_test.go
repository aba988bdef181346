package hopi

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/csr"
	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// encodeOpen is reopen for a section that must open.
func encodeOpen(t testing.TB, g *lgraph.LGraph, idx *Index) *Index {
	t.Helper()
	pi, err := reopen(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	return pi.(*Index)
}

// sameArrays reports whether two indexes hold equal labels and postings:
// the same offsets and the same entries.
func sameArrays(a, b *Index) bool {
	eq := func(x, y csr.Rows[entry]) bool { return slices.Equal(x.Off, y.Off) && slices.Equal(x.Data, y.Data) }
	return eq(a.in, b.in) && eq(a.out, b.out) && eq(a.hubIn, b.hubIn) && eq(a.hubOut, b.hubOut)
}

// collectionGraph flattens a collection into one local graph: every element,
// every parent-child edge and every link.
func collectionGraph(c *xmlgraph.Collection) *lgraph.LGraph {
	b := lgraph.NewBuilder()
	for n := xmlgraph.NodeID(0); int(n) < c.NumNodes(); n++ {
		b.AddNode(c.Tag(n))
	}
	for n := xmlgraph.NodeID(0); int(n) < c.NumNodes(); n++ {
		c.EachSuccessor(n, func(s xmlgraph.NodeID) { b.AddEdge(int32(n), int32(s)) })
	}
	return b.Finish()
}

// TestCompressedSectionParity checks that an opened section decodes into
// exactly the labels and postings Build produced, over random graphs and
// the testutil families.  Every probe test of the heap index therefore
// covers opened sections too.
func TestCompressedSectionParity(t *testing.T) {
	check := func(g *lgraph.LGraph) bool {
		idx := Build(g)
		got := encodeOpen(t, g, idx)
		if got.NumNodes() != g.NumNodes() || got.Name() != "hopi" || !sameArrays(idx, got) {
			t.Log("decoded index differs from the build")
			return false
		}
		return true
	}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		return check(randomGraph(rng, n, rng.Intn(3*n)))
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
	for _, fam := range testutil.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			if !check(collectionGraph(testutil.Generate(fam, seed, 6, 12, 15))) {
				t.Errorf("%s seed %d", fam, seed)
			}
		}
	}
}

// TestOpenAllocsFlat checks that an open allocates per blob, not per node:
// every run is cut from its blob's one backing array, so a graph ten times
// larger opens in as many allocations.
func TestOpenAllocsFlat(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(9))
	small, large := randomGraph(rng, 40, 90), randomGraph(rng, 400, 900)
	allocs := func(g *lgraph.LGraph) float64 {
		body, err := storage.EncodeSectionBody(Build(g).EncodeSection)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := OpenSection(g, body); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Errorf("opening 40 nodes allocates %v times, 400 nodes %v", a, b)
	}
}

// TestCompressedWriteTo checks that an opened section writes the exact
// canonical stream of the build it was encoded from: it decodes into the
// heap type.
func TestCompressedWriteTo(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(3*n))
		idx := Build(g)
		if !bytes.Equal(serialize(t, idx), serialize(t, encodeOpen(t, g, idx))) {
			t.Fatalf("seed %d: opened stream differs from the build's", seed)
		}
	}
}

// TestCompressedReencode checks the round trip build → encode → open →
// encode: byte-identical, so an opened generation re-persists exactly like
// the build.
func TestCompressedReencode(t *testing.T) {
	g, idx := buildGraph(t)
	rng := rand.New(rand.NewSource(3))
	big := randomGraph(rng, 120, 300)
	for _, gi := range []struct {
		g   *lgraph.LGraph
		idx *Index
	}{{g, idx}, {big, Build(big)}} {
		want, err := storage.EncodeSectionBody(gi.idx.EncodeSection)
		if err != nil {
			t.Fatal(err)
		}
		got, err := storage.EncodeSectionBody(encodeOpen(t, gi.g, gi.idx).EncodeSection)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatal("opened section re-encoded differs from the build's")
		}
	}
}

// TestCompressedSectionCorrupt flips single bits of an encoded section —
// the low bit and the varint continuation bit of every byte; truncations
// and two-bit flips are TestReadBodyCorrupt's — and OpenSection must
// either reject the result or serve an index whose probes stay in bounds,
// never a panic.  Forged runs behind a consistent envelope must be
// rejected.
func TestCompressedSectionCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 40, 90)
	idx := Build(g)
	body, err := storage.EncodeSectionBody(idx.EncodeSection)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(pi pathindex.Index) {
		n := int32(g.NumNodes())
		for x := int32(0); x < n; x += 7 {
			pi.Reachable(x, (x*13)%n)
			pi.EachReachable(x, func(int32, int32) bool { return true })
			pi.EachReachableByTag(x, 1, func(int32, int32) bool { return true })
			pi.EachReaching(x, func(int32, int32) bool { return true })
		}
	}
	for i := range body {
		for _, bit := range []byte{1, 0x80} {
			c := append([]byte(nil), body...)
			c[i] ^= bit
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("byte %d bit %#x: panic %v", i, bit, r)
					}
				}()
				pi, err := OpenSection(g, c)
				if err == nil {
					probe(pi)
				}
			}()
		}
	}
	if err := rejectForgedRuns(g); err != nil {
		t.Fatal(err)
	}
}
