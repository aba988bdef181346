package apex

// NumClasses returns the number of summary classes.
func (idx *Index) NumClasses() int { return len(idx.extents) }

// Class returns the summary class of data node v.
func (idx *Index) Class(v int32) int32 { return idx.class[v] }

// Extent returns the data nodes of summary class c.
func (idx *Index) Extent(c int32) []int32 { return idx.extents[c] }
