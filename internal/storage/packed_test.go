package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// packRoundTrip writes vals through a detached section writer and reads
// them back as a PackedI32.
func packRoundTrip(t *testing.T, vals []int32) (PackedI32, []byte) {
	t.Helper()
	body, err := EncodeSectionBody(func(sw *SnapshotWriter) { sw.PackedI32s(vals) })
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	d := NewSectionData(body)
	p := d.PackedI32s()
	if err := d.Err(); err != nil {
		t.Fatalf("read: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d trailing bytes", d.Remaining())
	}
	return p, body
}

func TestPackedI32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string][]int32{
		"empty":    {},
		"one":      {42},
		"constant": {-5, -5, -5, -5, -5},
		"identity": func() []int32 {
			v := make([]int32, 1000)
			for i := range v {
				v[i] = int32(i)
			}
			return v
		}(),
		"block-boundary": make([]int32, packedBlock),
		"block-plus-one": func() []int32 {
			v := make([]int32, packedBlock+1)
			for i := range v {
				v[i] = int32(i * 3)
			}
			return v
		}(),
		"extremes": {math.MinInt32, math.MaxInt32, 0, -1, 1},
		"random": func() []int32 {
			v := make([]int32, 5000)
			for i := range v {
				v[i] = int32(rng.Uint32())
			}
			return v
		}(),
		"small-range": func() []int32 {
			v := make([]int32, 777)
			for i := range v {
				v[i] = 1000 + rng.Int31n(30)
			}
			return v
		}(),
	}
	for name, vals := range shapes {
		t.Run(name, func(t *testing.T) {
			p, _ := packRoundTrip(t, vals)
			if p.Len() != len(vals) {
				t.Fatalf("Len = %d, want %d", p.Len(), len(vals))
			}
			for i, want := range vals {
				if got := p.At(int32(i)); got != want {
					t.Fatalf("At(%d) = %d, want %d", i, got, want)
				}
			}
		})
	}
}

func TestPackedI32SearchGE(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]int32, 300)
	for i := range vals {
		vals[i] = rng.Int31n(1000)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	p, _ := packRoundTrip(t, vals)
	for v := int32(-1); v <= 1001; v++ {
		want := int32(sort.Search(len(vals), func(i int) bool { return vals[i] >= v }))
		if got := p.SearchGE(0, int32(len(vals)), v); got != want {
			t.Fatalf("SearchGE(%d) = %d, want %d", v, got, want)
		}
	}
	// Sub-range searches.
	for trial := 0; trial < 100; trial++ {
		lo := rng.Int31n(int32(len(vals)))
		hi := lo + rng.Int31n(int32(len(vals))-lo+1)
		v := rng.Int31n(1000)
		want := hi
		for i := lo; i < hi; i++ {
			if vals[i] >= v {
				want = i
				break
			}
		}
		if got := p.SearchGE(lo, hi, v); got != want {
			t.Fatalf("SearchGE(%d, %d, %d) = %d, want %d", lo, hi, v, got, want)
		}
	}
}

// TestPackedI32BlockMatchesAt: for every block width 0–32 and every length
// 1–64 of the partial last block, with negative and extreme frame bases,
// Block decodes exactly what At reads — the eight-per-load groups and the
// per-value remainder alike — and FirstOutside finds exactly the value a
// per-value scan finds, over ranges that hold a frame, cut it on either side
// and miss it.
func TestPackedI32BlockMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for w := 0; w <= 32; w++ {
		for last := 1; last <= packedBlock; last++ {
			checkBlocksMatchAt(t, rng, w, last)
		}
	}
}

// checkBlocksMatchAt packs four blocks at width w — a random frame base, the
// least and the greatest — the last of them last values long, and holds
// Block and FirstOutside to At.
func checkBlocksMatchAt(t *testing.T, rng *rand.Rand, w, last int) {
	t.Helper()
	span := int64(1)<<w - 1 // the largest delta at width w
	var vals []int32
	for b := 0; b < 4; b++ {
		base := int64(math.MinInt32) + rng.Int63n(int64(math.MaxUint32)-span+1)
		switch b {
		case 1:
			base = math.MinInt32
		case 2:
			base = math.MaxInt32 - span
		}
		blk := make([]int32, packedBlock)
		if b == 3 {
			blk = blk[:last]
		}
		for i := range blk {
			d := rng.Int63n(span + 1)
			switch i {
			case 0:
				d = 0
			case 1:
				d = span // pins the block's width at w
			}
			blk[i] = int32(base + d)
		}
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		vals = append(vals, blk...)
	}
	p, _ := packRoundTrip(t, vals)
	if p.NumBlocks() != 4 {
		t.Fatalf("w=%d last=%d: %d blocks, want 4", w, last, p.NumBlocks())
	}
	var buf PackedBlock
	var frames [][2]int32 // each block's [min, max]
	for b := 0; b < p.NumBlocks(); b++ {
		got := p.Block(b, &buf)
		if want := min(packedBlock, len(vals)-b*packedBlock); len(got) != want {
			t.Fatalf("w=%d last=%d: block %d decodes %d values, want %d", w, last, b, len(got), want)
		}
		lo, hi := got[0], got[0]
		for j, v := range got {
			if at := p.At(int32(b*packedBlock + j)); v != at {
				t.Fatalf("w=%d last=%d: Block(%d)[%d] = %d, At = %d", w, last, b, j, v, at)
			}
			lo, hi = min(lo, v), max(hi, v)
		}
		frames = append(frames, [2]int32{lo, hi})
	}
	ranges := [][2]int32{{math.MinInt32, math.MaxInt32}, {0, 0}, {1, 0}}
	for _, f := range frames {
		ranges = append(ranges, f, [2]int32{f[0], f[1] - 1}, [2]int32{f[0] + 1, f[1]},
			[2]int32{f[0], f[0]}, [2]int32{f[1], math.MaxInt32}, [2]int32{math.MinInt32, f[0]})
	}
	for _, r := range ranges {
		wantI, wantV := len(vals), int32(0)
		for i, v := range vals {
			if v < r[0] || v > r[1] {
				wantI, wantV = i, v
				break
			}
		}
		if i, v := p.FirstOutside(r[0], r[1]); i != wantI || v != wantV {
			t.Fatalf("w=%d last=%d: FirstOutside(%d, %d) = (%d, %d), a per-value scan finds (%d, %d)",
				w, last, r[0], r[1], i, v, wantI, wantV)
		}
		checkBlockWithin(t, p, r[0], r[1], true)
	}
}

// checkBlockWithin holds BlockWithin to a per-value At scan of each block:
// it may pass a block only when every value lies inside, and on blocks a
// writer made (exact) it must pass every such block.
func checkBlockWithin(t *testing.T, p PackedI32, lo, hi int32, exact bool) {
	t.Helper()
	for b := 0; b < p.NumBlocks(); b++ {
		want := true
		for i := b * packedBlock; i < min((b+1)*packedBlock, p.Len()); i++ {
			if v := p.At(int32(i)); v < lo || v > hi {
				want = false
			}
		}
		if got := p.BlockWithin(b, lo, hi); got && !want || exact && got != want {
			t.Fatalf("BlockWithin(%d, %d, %d) = %t, a per-value scan finds %t", b, lo, hi, got, want)
		}
	}
}

// TestPackedI32BlockWithinForged: blocks no writer makes — a base below every
// value, deltas that wrap past MaxInt32 — pass BlockWithin only when every
// value lies inside, and FirstOutside finds what a per-value scan finds.
func TestPackedI32BlockWithinForged(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct {
		base     int32
		w        int
		minDelta uint32
	}{
		{-5, 4, 5},                   // base -5, no delta 0: values from 0 up
		{0, 7, 3},                    // the frame starts below the least value
		{math.MaxInt32 - 3, 4, 0},    // deltas above 3 wrap to negative values
		{math.MinInt32, 32, 1 << 31}, // width 32, values from 0 up
		{10, 9, 0},
		{-1, 16, 1},
	} {
		for _, m := range []int{1, 7, 8, 9, 63, 64} {
			span := uint64(1)<<c.w - 1
			deltas := make([]uint32, m)
			for i := range deltas {
				deltas[i] = c.minDelta + uint32(rng.Int63n(int64(span-uint64(c.minDelta))+1))
			}
			p := forgedBlock(t, c.base, c.w, deltas)
			var vals []int32
			for i := range deltas {
				vals = append(vals, p.At(int32(i)))
			}
			lo, hi := slices.Min(vals), slices.Max(vals)
			for _, r := range [][2]int32{{lo, hi}, {lo + 1, hi}, {lo, hi - 1}, {0, math.MaxInt32},
				{math.MinInt32, -1}, {c.base, math.MaxInt32}, {math.MinInt32, math.MaxInt32}} {
				checkBlockWithin(t, p, r[0], r[1], false)
				wantI, wantV := len(vals), int32(0)
				for i, v := range vals {
					if v < r[0] || v > r[1] {
						wantI, wantV = i, v
						break
					}
				}
				if i, v := p.FirstOutside(r[0], r[1]); i != wantI || v != wantV {
					t.Fatalf("base %d w=%d m=%d: FirstOutside(%d, %d) = (%d, %d), a per-value scan finds (%d, %d)",
						c.base, c.w, m, r[0], r[1], i, v, wantI, wantV)
				}
			}
		}
	}
}

// forgedBlock lays out one packed block by hand — the given base, width and
// deltas, whatever the values' least one is — and reads it back.
func forgedBlock(t *testing.T, base int32, w int, deltas []uint32) PackedI32 {
	t.Helper()
	payload := make([]byte, 8*w+8)
	for i, dl := range deltas {
		for k := 0; k < w; k++ {
			if dl>>k&1 != 0 {
				bit := i*w + k
				payload[bit/8] |= 1 << (bit % 8)
			}
		}
	}
	body, err := EncodeSectionBody(func(sw *SnapshotWriter) {
		sw.U32(uint32(len(deltas)))
		sw.U32(uint32(len(payload)))
		sw.I32s([]int32{base})
		sw.Raw([]byte{byte(w)})
		sw.Align(8)
		sw.Raw(payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	d := NewSectionData(body)
	p := d.PackedI32s()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return p
}

// BenchmarkPackedBlock decodes a 4096-value array a block at a time at
// widths on either side of the eight-per-load path (w <= 8) — what an open's
// validation pass does — and reports the cost per value.
func BenchmarkPackedBlock(b *testing.B) {
	for _, w := range []int{1, 4, 7, 8, 9, 12, 32} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(w)))
			vals := make([]int32, 64*packedBlock)
			for i := range vals {
				vals[i] = int32(rng.Int63n(int64(1) << w))
			}
			body, err := EncodeSectionBody(func(sw *SnapshotWriter) { sw.PackedI32s(vals) })
			if err != nil {
				b.Fatal(err)
			}
			p := NewSectionData(body).PackedI32s()
			var buf PackedBlock
			sum := int32(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for blk := 0; blk < p.NumBlocks(); blk++ {
					for _, v := range p.Block(blk, &buf) {
						sum += v
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
			blockSink = sum
		})
	}
}

// blockSink keeps BenchmarkPackedBlock's decoding live.
var blockSink int32

// TestReservePacked: arrays whose directories come from a ReservePacked
// reservation read exactly like arrays that allocate their own, whether the
// reservation covers every array, runs out part-way, or was sized by counts
// larger than the arrays (forged) or than the section can hold.  Every array
// is checked after all are read, so two directories cut from overlapping
// parts of the reservation would show.
func TestReservePacked(t *testing.T) {
	lens := []int{1, 64, 65, 300, 0, 129}
	var arrays [][]int32
	rng := rand.New(rand.NewSource(5))
	for _, n := range lens {
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = rng.Int31n(1000) - 500
		}
		arrays = append(arrays, vals)
	}
	body, err := EncodeSectionBody(func(sw *SnapshotWriter) {
		for _, vals := range arrays {
			sw.PackedI32s(vals)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, counts := range map[string][]int{
		"none":     nil,
		"exact":    lens,
		"short":    lens[:3],
		"forged":   {1 << 30, -5, 1 << 30},
		"negative": {-1, -64},
	} {
		d := NewSectionData(body)
		d.ReservePacked(counts...)
		if len(d.dirs) > d.Remaining()/5 {
			t.Fatalf("%s: reserved %d blocks in a %d-byte section", name, len(d.dirs), d.Remaining())
		}
		var ps []PackedI32
		for range arrays {
			ps = append(ps, d.PackedI32s())
		}
		if err := d.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for a, vals := range arrays {
			p := ps[a]
			if p.Len() != len(vals) || p.NumBlocks() != (len(vals)+packedBlock-1)/packedBlock {
				t.Fatalf("%s: array %d holds %d values in %d blocks, want %d", name, a, p.Len(), p.NumBlocks(), len(vals))
			}
			for i, v := range vals {
				if got := p.At(int32(i)); got != v {
					t.Fatalf("%s: array %d: At(%d) = %d, want %d", name, a, i, got, v)
				}
			}
		}
	}
}

// TestPackedPrefixOffsetsNotMonotonicAt: the block-wise monotonic scan names
// the same position a per-value scan does, wherever the drop falls relative
// to the block boundaries.
func TestPackedPrefixOffsetsNotMonotonicAt(t *testing.T) {
	const n = 3*packedBlock + 7
	read := func(vals []int32) error {
		body, err := EncodeSectionBody(func(sw *SnapshotWriter) { sw.PackedI32s(vals) })
		if err != nil {
			t.Fatal(err)
		}
		d := NewSectionData(body)
		d.PackedPrefixOffsets(n, uint32(vals[n]))
		return d.Err()
	}
	vals := make([]int32, n+1)
	for i := range vals {
		vals[i] = int32(2 * i)
	}
	if err := read(vals); err != nil {
		t.Fatalf("monotonic table rejected: %v", err)
	}
	for _, k := range []int{1, packedBlock - 1, packedBlock, packedBlock + 1, 2 * packedBlock, n - 1} {
		bad := slices.Clone(vals)
		bad[k] = bad[k-1] - 1
		err := read(bad)
		if want := fmt.Sprintf("prefix table not monotonic at %d", k-1); err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("drop at %d: err = %v, want %q", k, err, want)
		}
	}
}

func TestPackedI32Corrupt(t *testing.T) {
	vals := make([]int32, 500)
	for i := range vals {
		vals[i] = int32(i * 7)
	}
	_, body := packRoundTrip(t, vals)
	read := func(b []byte) error {
		d := NewSectionData(b)
		d.PackedI32s()
		return d.Err()
	}
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 4, 8, 12, len(body) / 2, len(body) - 1} {
			if err := read(body[:len(body)-cut]); err == nil {
				t.Fatalf("truncation by %d accepted", cut)
			}
		}
	})
	t.Run("width-over-32", func(t *testing.T) {
		// The widths array follows count, dataLen and the 4-aligned bases.
		nb := (len(vals) + packedBlock - 1) / packedBlock
		c := append([]byte(nil), body...)
		c[8+4*nb] = 33
		if err := read(c); err == nil {
			t.Fatal("width 33 accepted")
		}
	})
	t.Run("datalen-mismatch", func(t *testing.T) {
		c := append([]byte(nil), body...)
		c[4]++ // dataLen low byte
		if err := read(c); err == nil {
			t.Fatal("forged dataLen accepted")
		}
	})
	t.Run("forged-count", func(t *testing.T) {
		c := append([]byte(nil), body...)
		c[0], c[1], c[2], c[3] = 0xff, 0xff, 0xff, 0x7f
		if err := read(c); err == nil {
			t.Fatal("forged count accepted")
		}
	})
}
