package tc

// Pairs returns the number of stored (source, target) pairs.
func (idx *Index) Pairs() int { return len(idx.fwd.Data) }
