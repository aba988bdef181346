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

// codecs lists both section encodings with their openers.
var codecs = []struct {
	name   string
	encode func(*Index) func(*storage.SnapshotWriter)
	open   func(*lgraph.LGraph, []byte) (pathindex.Index, error)
}{
	{"raw", func(idx *Index) func(*storage.SnapshotWriter) { return idx.EncodeSection }, OpenSection},
	{"compressed", func(idx *Index) func(*storage.SnapshotWriter) { return idx.EncodeCompressedSection }, OpenCompressedSection},
}

// encodeOpen encodes idx's section in the codec and decodes it back over g.
func encodeOpen(t testing.TB, g *lgraph.LGraph, idx *Index, codec int) *Index {
	t.Helper()
	body, err := storage.EncodeSectionBody(codecs[codec].encode(idx))
	if err != nil {
		t.Fatal(err)
	}
	pi, err := codecs[codec].open(g, body)
	if err != nil {
		t.Fatalf("%s: %v", codecs[codec].name, err)
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

// TestCompressedSectionParity checks that a section opened raw and opened
// compressed decodes into exactly the labels and postings Build produced,
// over random graphs and the testutil families.  Every probe test of the
// heap index therefore covers opened sections too.
func TestCompressedSectionParity(t *testing.T) {
	check := func(g *lgraph.LGraph) bool {
		idx := Build(g)
		for c := range codecs {
			got := encodeOpen(t, g, idx, c)
			if got.NumNodes() != g.NumNodes() || got.Name() != "hopi" || !sameArrays(idx, got) {
				t.Logf("%s: decoded index differs from the build", codecs[c].name)
				return false
			}
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
	for _, c := range codecs {
		allocs := func(g *lgraph.LGraph) float64 {
			body, err := storage.EncodeSectionBody(c.encode(Build(g)))
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(20, func() {
				if _, err := c.open(g, body); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(small), allocs(large); a != b {
			t.Errorf("%s: opening 40 nodes allocates %v times, 400 nodes %v", c.name, a, b)
		}
	}
}

// TestCompressedWriteTo checks that an opened section writes the exact
// canonical stream of the build it was encoded from, in both codecs: both
// decode into the heap type.
func TestCompressedWriteTo(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(3*n))
		idx := Build(g)
		for c := range codecs {
			if !bytes.Equal(serialize(t, idx), serialize(t, encodeOpen(t, g, idx, c))) {
				t.Fatalf("seed %d: %s-opened stream differs from the build's", seed, codecs[c].name)
			}
		}
	}
}

// TestCompressedReencode checks the round trip build → encode → open →
// encode: byte-identical in every pair of codecs, so an opened generation
// re-persists under any option exactly like the build.
func TestCompressedReencode(t *testing.T) {
	g, idx := buildGraph(t)
	rng := rand.New(rand.NewSource(3))
	big := randomGraph(rng, 120, 300)
	for _, gi := range []struct {
		g   *lgraph.LGraph
		idx *Index
	}{{g, idx}, {big, Build(big)}} {
		for from := range codecs {
			opened := encodeOpen(t, gi.g, gi.idx, from)
			for to := range codecs {
				want, err := storage.EncodeSectionBody(codecs[to].encode(gi.idx))
				if err != nil {
					t.Fatal(err)
				}
				got, err := storage.EncodeSectionBody(codecs[to].encode(opened))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s-opened section re-encoded %s differs from the build's", codecs[from].name, codecs[to].name)
				}
			}
		}
	}
}

// TestCompressedSectionCorrupt flips every byte of an encoded section and
// truncates it: OpenCompressedSection must either reject it or serve an
// index whose probes stay in bounds — never a panic.  Forged runs behind a
// consistent envelope must be rejected.
func TestCompressedSectionCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 40, 90)
	idx := Build(g)
	body, err := storage.EncodeSectionBody(idx.EncodeCompressedSection)
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
				pi, err := OpenCompressedSection(g, c)
				if err == nil {
					probe(pi)
				}
			}()
		}
	}
	for cut := 0; cut < len(body); cut += 3 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("truncation to %d: panic %v", cut, r)
				}
			}()
			pi, err := OpenCompressedSection(g, body[:cut])
			if err == nil {
				probe(pi)
			}
		}()
	}
	if err := rejectForgedRuns(g, 1); err != nil {
		t.Fatal(err)
	}
}

// TestCompressedSmallerThanRaw pins down that the tight encoding actually
// pays on a non-trivial graph.
func TestCompressedSmallerThanRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 400, 900)
	idx := Build(g)
	raw, err := storage.EncodeSectionBody(idx.EncodeSection)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := storage.EncodeSectionBody(idx.EncodeCompressedSection)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(raw) {
		t.Fatalf("compressed section is %d bytes, raw %d", len(comp), len(raw))
	}
	t.Logf("raw %d bytes, compressed %d bytes (%.2fx)", len(raw), len(comp),
		float64(len(raw))/float64(len(comp)))
}
