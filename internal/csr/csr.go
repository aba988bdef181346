// Package csr holds the one layout every persistent nested array of the
// index structures uses: rows in compressed sparse row form, an offset table
// plus one flat array.  It is the in-memory form of the v2 snapshot
// sections' offset-table-plus-array relations, so an encoder writes the two
// arrays it holds and a raw opener views them in the section bytes without
// building a header per row.
package csr

// Rows is a table of variable-length rows: row i is Data[Off[i]:Off[i+1]].
// A table of n rows has n+1 offsets, ascending; the first need not be 0, so
// several tables can share one Data.  The zero value has no rows.
type Rows[T any] struct {
	Off  []uint32
	Data []T
}

// Row returns row i.  Its capacity ends with it, so appending to it never
// overwrites the next row.
func (r Rows[T]) Row(i int32) []T {
	lo, hi := r.Off[i], r.Off[i+1]
	return r.Data[lo:hi:hi]
}

// Len returns the number of rows.
func (r Rows[T]) Len() int { return max(len(r.Off)-1, 0) }

// Append adds a row holding vs after the last one.
func (r *Rows[T]) Append(vs ...T) {
	if len(r.Off) == 0 {
		r.Off = append(r.Off, uint32(len(r.Data)))
	}
	r.Data = append(r.Data, vs...)
	r.Off = append(r.Off, uint32(len(r.Data)))
}

// Group builds n rows from (row, value) pairs.  each calls add once per pair
// and is called twice, to count and then to fill; a row's values keep the
// order each adds them in.
func Group[T any](n int, each func(add func(row int32, v T))) Rows[T] {
	// off[row+2] counts first, so that after the prefix sum off[row+1] is
	// where row begins: filling advances it to where row ends, which is
	// then the offset the table keeps.
	off := make([]uint32, n+2)
	each(func(row int32, _ T) { off[row+2]++ })
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	data := make([]T, off[n+1])
	each(func(row int32, v T) {
		data[off[row+1]] = v
		off[row+1]++
	})
	return Rows[T]{Off: off[:n+1], Data: data}
}
