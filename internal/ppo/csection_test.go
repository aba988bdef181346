package ppo

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

// compressedView encodes idx's compressed section and opens a CIndex over
// the bytes.
func compressedView(t testing.TB, g *lgraph.LGraph, idx *Index) *CIndex {
	t.Helper()
	body, err := storage.EncodeSectionBody(idx.EncodeCompressedSection)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := OpenCompressedSection(g, body)
	if err != nil {
		t.Fatal(err)
	}
	return pi.(*CIndex)
}

// collect gathers an enumeration into (node, dist) pairs.
func collect(each func(pathindex.Visit)) [][2]int32 {
	var out [][2]int32
	each(func(n, d int32) bool {
		out = append(out, [2]int32{n, d})
		return true
	})
	return out
}

func pairsEqual(a, b [][2]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompressedSectionParity checks every probe of the compressed view
// against the heap index over random forests — identical results,
// identical emission order.
func TestCompressedSectionParity(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomForest(rng, 2+rng.Intn(80))
		idx, err := Build(g)
		if err != nil {
			return false
		}
		cv := compressedView(t, g, idx)
		n := int32(g.NumNodes())
		if cv.NumNodes() != int(n) || cv.Name() != "ppo" {
			return false
		}
		for x := int32(0); x < n; x++ {
			for y := int32(0); y < n; y++ {
				if idx.Reachable(x, y) != cv.Reachable(x, y) {
					t.Logf("Reachable(%d,%d) differs", x, y)
					return false
				}
				d1, ok1 := idx.Distance(x, y)
				d2, ok2 := cv.Distance(x, y)
				if ok1 != ok2 || d1 != d2 {
					t.Logf("Distance(%d,%d) differs", x, y)
					return false
				}
			}
			if !pairsEqual(
				collect(func(fn pathindex.Visit) { idx.EachReachable(x, fn) }),
				collect(func(fn pathindex.Visit) { cv.EachReachable(x, fn) })) {
				t.Logf("EachReachable(%d) differs", x)
				return false
			}
			if !pairsEqual(
				collect(func(fn pathindex.Visit) { idx.EachReaching(x, fn) }),
				collect(func(fn pathindex.Visit) { cv.EachReaching(x, fn) })) {
				t.Logf("EachReaching(%d) differs", x)
				return false
			}
			for tag := lgraph.Tag(-1); int(tag) <= g.NumTags(); tag++ {
				if !pairsEqual(
					collect(func(fn pathindex.Visit) { idx.EachReachableByTag(x, tag, fn) }),
					collect(func(fn pathindex.Visit) { cv.EachReachableByTag(x, tag, fn) })) {
					t.Logf("EachReachableByTag(%d, %d) differs", x, tag)
					return false
				}
				if !pairsEqual(
					collect(func(fn pathindex.Visit) { idx.EachReachingByTag(x, tag, fn) }),
					collect(func(fn pathindex.Visit) { cv.EachReachingByTag(x, tag, fn) })) {
					t.Logf("EachReachingByTag(%d, %d) differs", x, tag)
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestCompressedWriteTo checks that the compressed view re-emits the exact
// canonical stream the heap index writes.
func TestCompressedWriteTo(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomForest(rng, 2+rng.Intn(60))
		idx, err := Build(g)
		if err != nil {
			t.Fatal(err)
		}
		cv := compressedView(t, g, idx)
		var want, got bytes.Buffer
		if _, err := idx.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if _, err := cv.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("seed %d: compressed WriteTo differs from heap WriteTo", seed)
		}
	}
}

// TestCompressedEncodePassthrough checks that a compressed view re-encodes
// its own section verbatim.
func TestCompressedEncodePassthrough(t *testing.T) {
	g, idx := buildTree(t)
	body, err := storage.EncodeSectionBody(idx.EncodeCompressedSection)
	if err != nil {
		t.Fatal(err)
	}
	cv := compressedView(t, g, idx)
	if cv.SectionKind() != storage.SectionPPOC {
		t.Fatalf("SectionKind = %d", cv.SectionKind())
	}
	again, err := storage.EncodeSectionBody(cv.EncodeSection)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, again) {
		t.Fatal("EncodeSection is not a verbatim passthrough")
	}
}

// TestCompressedEarlyStop checks that a false-returning visitor stops the
// enumeration.
func TestCompressedEarlyStop(t *testing.T) {
	g, idx := buildTree(t)
	cv := compressedView(t, g, idx)
	count := 0
	cv.EachReachable(0, func(n, d int32) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("visited %d nodes, want 2", count)
	}
}

// TestCompressedSectionCorrupt flips every byte of an encoded section and
// requires OpenCompressedSection to either reject it or serve a view whose
// probes stay in bounds — never a panic.
func TestCompressedSectionCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomForest(rng, 50)
	idx, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
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
			// Budget the ancestor walk: a forged parent encoding may cycle
			// (the raw section has the same property); real files are
			// checksummed, so per-step validation would tax only the hot
			// path.
			steps := 0
			pi.EachReaching(x, func(int32, int32) bool {
				steps++
				return steps <= int(n)
			})
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
	// Truncations at every boundary.
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
}
