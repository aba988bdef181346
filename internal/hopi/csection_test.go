package hopi

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

// tightView encodes idx's compressed section and opens a tight View over
// the bytes.
func tightView(t testing.TB, g *lgraph.LGraph, idx *Index) *View {
	t.Helper()
	body, err := storage.EncodeSectionBody(idx.EncodeCompressedSection)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := OpenCompressedSection(g, body)
	if err != nil {
		t.Fatal(err)
	}
	return pi.(*View)
}

// gather collects an enumeration into (node, dist) pairs.
func gather(each func(pathindex.Visit)) [][2]int32 {
	var out [][2]int32
	each(func(n, d int32) bool {
		out = append(out, [2]int32{n, d})
		return true
	})
	return out
}

func samePairs(a, b [][2]int32) bool {
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

// TestCompressedSectionParity checks every probe of the tight view against
// the heap index over random labeled graphs — identical results, identical
// emission order.
func TestCompressedSectionParity(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(3*n))
		idx := Build(g)
		v := tightView(t, g, idx)
		if v.NumNodes() != n || v.Name() != "hopi" {
			return false
		}
		for x := int32(0); x < int32(n); x++ {
			for y := int32(0); y < int32(n); y++ {
				if idx.Reachable(x, y) != v.Reachable(x, y) {
					t.Logf("Reachable(%d,%d) differs", x, y)
					return false
				}
				d1, ok1 := idx.Distance(x, y)
				d2, ok2 := v.Distance(x, y)
				if ok1 != ok2 || d1 != d2 {
					t.Logf("Distance(%d,%d) differs", x, y)
					return false
				}
			}
			if !samePairs(
				gather(func(fn pathindex.Visit) { idx.EachReachable(x, fn) }),
				gather(func(fn pathindex.Visit) { v.EachReachable(x, fn) })) {
				t.Logf("EachReachable(%d) differs", x)
				return false
			}
			if !samePairs(
				gather(func(fn pathindex.Visit) { idx.EachReaching(x, fn) }),
				gather(func(fn pathindex.Visit) { v.EachReaching(x, fn) })) {
				t.Logf("EachReaching(%d) differs", x)
				return false
			}
			for tag := lgraph.Tag(-1); int(tag) <= g.NumTags(); tag++ {
				if !samePairs(
					gather(func(fn pathindex.Visit) { idx.EachReachableByTag(x, tag, fn) }),
					gather(func(fn pathindex.Visit) { v.EachReachableByTag(x, tag, fn) })) {
					t.Logf("EachReachableByTag(%d, %d) differs", x, tag)
					return false
				}
				if !samePairs(
					gather(func(fn pathindex.Visit) { idx.EachReachingByTag(x, tag, fn) }),
					gather(func(fn pathindex.Visit) { v.EachReachingByTag(x, tag, fn) })) {
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

// TestCompressedWriteTo checks that the tight view re-emits the exact canonical
// stream the heap index writes.
func TestCompressedWriteTo(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(3*n))
		idx := Build(g)
		v := tightView(t, g, idx)
		var want, got bytes.Buffer
		if _, err := idx.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if _, err := v.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("seed %d: compressed WriteTo differs from heap WriteTo", seed)
		}
	}
}

// TestCompressedReencode checks the two re-encoding paths: a tight view
// passes its section through verbatim, and a raw view's compressed
// encoding matches the heap index's byte for byte.
func TestCompressedReencode(t *testing.T) {
	g, idx := buildGraph(t)
	comp, err := storage.EncodeSectionBody(idx.EncodeCompressedSection)
	if err != nil {
		t.Fatal(err)
	}

	v := tightView(t, g, idx)
	if v.SectionKind() != storage.SectionHOPIC {
		t.Fatalf("SectionKind = %d", v.SectionKind())
	}
	if v.CompressedSectionKind() != storage.SectionHOPIC {
		t.Fatalf("CompressedSectionKind = %d", v.CompressedSectionKind())
	}
	again, err := storage.EncodeSectionBody(v.EncodeSection)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(comp, again) {
		t.Fatal("tight EncodeSection is not a verbatim passthrough")
	}
	again, err = storage.EncodeSectionBody(v.EncodeCompressedSection)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(comp, again) {
		t.Fatal("tight EncodeCompressedSection is not a verbatim passthrough")
	}

	raw, err := storage.EncodeSectionBody(idx.EncodeSection)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := OpenSection(g, raw)
	if err != nil {
		t.Fatal(err)
	}
	recomp, err := storage.EncodeSectionBody(rv.(*View).EncodeCompressedSection)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(comp, recomp) {
		t.Fatal("raw view's compressed encoding differs from heap index's")
	}
}

// TestCompressedEarlyStop checks that a false-returning visitor stops the
// enumeration.
func TestCompressedEarlyStop(t *testing.T) {
	g, idx := buildGraph(t)
	v := tightView(t, g, idx)
	count := 0
	v.EachReachable(0, func(n, d int32) bool {
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
