package ppo

import (
	"bytes"
	"errors"
	"math"
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

// withoutDerived returns a copy of a ppo or ppo-c section body with the
// derived flag cleared: the header is four u32s, flags last.
func withoutDerived(body []byte) []byte {
	c := bytes.Clone(body)
	c[12] &^= secFlagDerived
	return c
}

// TestCompressedSectionCorrupt flips every byte of an encoded section and
// requires OpenCompressedSection to either reject it or serve a view whose
// probes stay in bounds — never a panic.  A section of either codec without
// its derived flag is refused as corrupt.
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
	rawBody, err := storage.EncodeSectionBody(idx.EncodeSection)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		open func(*lgraph.LGraph, []byte) (pathindex.Index, error)
		body []byte
	}{{"ppo-c", OpenCompressedSection, body}, {"ppo", OpenSection, rawBody}} {
		if pi, err := c.open(g, withoutDerived(c.body)); !errors.Is(err, storage.ErrCorrupt) || pi != nil {
			t.Errorf("%s without the derived flag: %v, %v; want ErrCorrupt and no index", c.name, pi, err)
		}
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

// TestCompressedSectionForgedErrors forges one ppo-c section per open check —
// rank, parent, depth, subtree, tag-run rank and tag rank — by editing a
// built index before encoding it, and requires the error the opener gave
// when it checked every node in order (recorded then), byte for byte: the
// first failing node of a block, and the first failing check of a node,
// still name the error.
func TestCompressedSectionForgedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomForest(rng, 150) // two full blocks and a short one
	n := int32(g.NumNodes())
	for _, c := range []struct {
		name  string
		forge func(idx *Index)
		want  string
	}{
		{"rank", func(idx *Index) { idx.pre[70] = n }, "ppo: rank out of range at node 70"},
		{"negative rank", func(idx *Index) { idx.pre[3] = -1 }, "ppo: rank out of range at node 3"},
		{"inverse rank", func(idx *Index) { idx.byPre[149] = n + 9 }, "ppo: rank out of range at node 149"},
		{"parent", func(idx *Index) { idx.parent[90] = 200 }, "ppo: parent 200 out of range"},
		{"depth", func(idx *Index) { idx.depth[128] = -4 }, "ppo: depth -4 out of range"},
		{"depth past the end", func(idx *Index) { idx.depth[0] = n }, "ppo: depth 150 out of range"},
		{"empty subtree", func(idx *Index) { idx.size[130] = 0 }, "ppo: subtree [143+0] out of range"},
		{"subtree past the end", func(idx *Index) { idx.size[63] = n - idx.pre[63] + 1 }, "ppo: subtree [87+64] out of range"},
		{"first failing node of a block", func(idx *Index) { idx.size[79] = 0; idx.depth[75] = n; idx.pre[80] = -1 },
			"ppo: depth 150 out of range"},
		{"first failing check of a node", func(idx *Index) { idx.size[100] = 0; idx.depth[100] = -1; idx.parent[100] = n },
			"ppo: parent 150 out of range"},
		{"tag-run rank", func(idx *Index) { idx.tagRuns.Data[40] = n }, "ppo: tag-run rank 150 out of range"},
		{"first tag-run rank", func(idx *Index) { idx.tagRuns.Data[149] = -7; idx.tagRuns.Data[140] = n + 3 },
			"ppo: tag-run rank 153 out of range"},
		{"tag rank", func(idx *Index) { idx.runsSorted = false; idx.tagPre.Data[10] = -2 }, "ppo: tag rank -2 out of range"},
		{"tag rank past the end", func(idx *Index) { idx.runsSorted = false; idx.tagPre.Data[120] = n + 1 },
			"ppo: tag rank 151 out of range"},
	} {
		idx, err := Build(g)
		if err != nil {
			t.Fatal(err)
		}
		c.forge(idx)
		body, err := storage.EncodeSectionBody(idx.EncodeCompressedSection)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := OpenCompressedSection(g, body)
		if err == nil || err.Error() != c.want || pi != nil {
			t.Errorf("%s: OpenCompressedSection = %v, %v; want no index and %q", c.name, pi, err, c.want)
		}
	}
}

// TestBlockInRangeMatchesCheckNodes: on blocks of every length whose values
// crowd the edges of the checked ranges — negative, 0, n-1, n, the int32
// extremes — a block passes blockInRange with its inverse ranks and depths in
// [0, n) exactly when checkNodes finds no failing node.
func TestBlockInRangeMatchesCheckNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var passed, failed int
	for iter := 0; iter < 20000; iter++ {
		n := 1 + rng.Intn(300)
		x0 := int32(rng.Intn(n))
		m := 1 + rng.Intn(min(64, n-int(x0)))
		edge := func(x int32) int32 {
			switch rng.Intn(10) {
			case 0:
				return []int32{math.MinInt32, math.MaxInt32, -2, -1}[rng.Intn(4)]
			case 1:
				return int32(n) + int32(rng.Intn(3)) - 1
			case 2:
				return x + 1 - int32(n) + int32(rng.Intn(3)) - 1 // parent offsets at -1 and n
			default:
				return int32(rng.Intn(n))
			}
		}
		// Each column is valid — what a writer stores — or, one time in
		// five, drawn from the edges.
		cols := make([][]int32, 5) // pre, byPre, parentRel, depth, size
		for c := range cols {
			cols[c] = make([]int32, m)
			forged := rng.Intn(5) == 0
			for j := range cols[c] {
				x := x0 + int32(j)
				switch {
				case forged:
					cols[c][j] = edge(x)
				case c == 2:
					cols[c][j] = int32(rng.Intn(int(x) + 1))
				case c == 4:
					cols[c][j] = 1 + int32(rng.Intn(max(1, n-int(cols[0][j]))))
				default:
					cols[c][j] = int32(rng.Intn(n))
				}
			}
		}
		ps, qs, rs, ds, ss := cols[0], cols[1], cols[2], cols[3], cols[4]
		inRange := func(vs []int32) bool {
			for _, v := range vs {
				if v < 0 || int(v) >= n {
					return false
				}
			}
			return true
		}
		fast := blockInRange(uint32(x0), uint32(n), ps, rs, ss) && inRange(qs) && inRange(ds)
		err := checkNodes(x0, n, ps, qs, rs, ds, ss)
		if fast != (err == nil) {
			t.Fatalf("n=%d x0=%d pre %v byPre %v rel %v depth %v size %v: fast test %t, checkNodes %v",
				n, x0, ps, qs, rs, ds, ss, fast, err)
		}
		if fast {
			passed++
		} else {
			failed++
		}
	}
	if passed < 1000 || failed < 1000 {
		t.Fatalf("%d blocks passed and %d failed: the generator no longer reaches both sides", passed, failed)
	}
}
