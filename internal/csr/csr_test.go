package csr_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/csr"
	"repro/internal/storage"
)

func TestRowsEmptyRows(t *testing.T) {
	var zero csr.Rows[int32]
	if zero.Len() != 0 {
		t.Errorf("zero Rows has %d rows", zero.Len())
	}
	r := csr.Rows[int32]{Off: []uint32{0, 0, 2, 2, 3}, Data: []int32{7, 8, 9}}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	for i, want := range [][]int32{{}, {7, 8}, {}, {9}} {
		if got := r.Row(int32(i)); !slices.Equal(got, want) {
			t.Errorf("Row(%d) = %v, want %v", i, got, want)
		}
	}
	// A row's capacity ends with it: appending to row 1 must not overwrite
	// row 3's value.
	_ = append(r.Row(1), -1)
	if r.Data[2] != 9 {
		t.Errorf("append to row 1 overwrote row 3: %v", r.Data)
	}
}

// TestRowsSharedData: tables carved out of one Data and one offset array,
// as lgraph.FromAdjacency lays out consecutive graphs, start at a non-zero
// offset and see only their own values.
func TestRowsSharedData(t *testing.T) {
	data := []int32{1, 2, 3, 4, 5, 6}
	off := []uint32{0, 2, 3, 3, 6}
	first := csr.Rows[int32]{Off: off[:3], Data: data}
	second := csr.Rows[int32]{Off: off[2:], Data: data}
	if first.Len() != 2 || second.Len() != 2 {
		t.Fatalf("Len = %d, %d, want 2, 2", first.Len(), second.Len())
	}
	for _, c := range []struct {
		r    csr.Rows[int32]
		i    int32
		want []int32
	}{{first, 0, []int32{1, 2}}, {first, 1, []int32{3}}, {second, 0, nil}, {second, 1, []int32{4, 5, 6}}} {
		if got := c.r.Row(c.i); !slices.Equal(got, c.want) {
			t.Errorf("Row(%d) from offset %d = %v, want %v", c.i, c.r.Off[0], got, c.want)
		}
	}
}

func TestAppendAndGroup(t *testing.T) {
	var r csr.Rows[int32]
	r.Append(4, 5)
	r.Append()
	r.Append(6)
	if !slices.Equal(r.Off, []uint32{0, 2, 2, 3}) || !slices.Equal(r.Data, []int32{4, 5, 6}) {
		t.Errorf("Append built %v / %v", r.Off, r.Data)
	}
	// Group keeps each row's values in the order they were added, and
	// leaves rows nothing was added to empty.
	pairs := [][2]int32{{2, 10}, {0, 11}, {2, 12}, {0, 13}, {4, 14}}
	g := csr.Group(5, func(add func(int32, int32)) {
		for _, p := range pairs {
			add(p[0], p[1])
		}
	})
	want := [][]int32{{11, 13}, {}, {10, 12}, {}, {14}}
	if g.Len() != len(want) {
		t.Fatalf("Group built %d rows, want %d", g.Len(), len(want))
	}
	for i, w := range want {
		if got := g.Row(int32(i)); !slices.Equal(got, w) {
			t.Errorf("Group row %d = %v, want %v", i, got, w)
		}
	}
	if e := csr.Group(0, func(func(int32, int32)) {}); e.Len() != 0 || len(e.Off) != 1 {
		t.Errorf("Group of no rows = %v, want one offset", e.Off)
	}
}

// TestStorageRows32: what SnapshotWriter.Rows32 writes, SectionData.Rows32
// views unchanged, and an offset table that is not monotone, does not start
// at 0 or overruns the values is corrupt.
func TestStorageRows32(t *testing.T) {
	want := csr.Rows[int32]{Off: []uint32{0, 2, 2, 3}, Data: []int32{-1, 5, 9}}
	body, err := storage.EncodeSectionBody(func(sw *storage.SnapshotWriter) { sw.Rows32(want) })
	if err != nil {
		t.Fatal(err)
	}
	d := storage.NewSectionData(body)
	got := d.Rows32(3, 3)
	if d.Err() != nil || !slices.Equal(got.Off, want.Off) || !slices.Equal(got.Data, want.Data) {
		t.Fatalf("Rows32 read %v / %v (%v), want %v / %v", got.Off, got.Data, d.Err(), want.Off, want.Data)
	}
	for _, c := range []struct {
		name  string
		off   []uint32
		total int
	}{
		{"non-monotone", []uint32{0, 2, 1, 3}, 3},
		{"not starting at 0", []uint32{1, 2, 2, 3}, 3},
		{"overrunning the values", []uint32{0, 2, 2, 4}, 3},
		{"short of the values", []uint32{0, 2, 2, 2}, 3},
	} {
		body, err := storage.EncodeSectionBody(func(sw *storage.SnapshotWriter) {
			sw.Rows32(csr.Rows[int32]{Off: c.off, Data: want.Data})
		})
		if err != nil {
			t.Fatal(err)
		}
		d := storage.NewSectionData(body)
		if r := d.Rows32(3, c.total); !errors.Is(d.Err(), storage.ErrCorrupt) || r.Len() != 0 {
			t.Errorf("%s: Rows32 = %v, %v; want ErrCorrupt and no rows", c.name, r.Off, d.Err())
		}
	}
	// A table that claims more values than the section holds.
	d = storage.NewSectionData(body[:len(body)-4])
	if d.Rows32(3, 3); !errors.Is(d.Err(), storage.ErrCorrupt) {
		t.Errorf("truncated values: err = %v, want ErrCorrupt", d.Err())
	}
}
