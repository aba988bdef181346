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

// TestPackedI32BlockMatchesAt: for every block width 0–32, with negative and
// extreme frame bases and a partial last block, Block decodes exactly what At
// reads, and FirstOutside finds exactly the value a per-value scan finds,
// over ranges that hold a frame, cut it on either side and miss it.
func TestPackedI32BlockMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for w := 0; w <= 32; w++ {
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
				blk = blk[:17] // the partial last block
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
			t.Fatalf("w=%d: %d blocks, want 4", w, p.NumBlocks())
		}
		var buf PackedBlock
		var frames [][2]int32 // each block's [min, max]
		for b := 0; b < p.NumBlocks(); b++ {
			got := p.Block(b, &buf)
			if want := min(packedBlock, len(vals)-b*packedBlock); len(got) != want {
				t.Fatalf("w=%d: block %d decodes %d values, want %d", w, b, len(got), want)
			}
			lo, hi := got[0], got[0]
			for j, v := range got {
				if at := p.At(int32(b*packedBlock + j)); v != at {
					t.Fatalf("w=%d: Block(%d)[%d] = %d, At = %d", w, b, j, v, at)
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
				t.Fatalf("w=%d: FirstOutside(%d, %d) = (%d, %d), a per-value scan finds (%d, %d)",
					w, r[0], r[1], i, v, wantI, wantV)
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
