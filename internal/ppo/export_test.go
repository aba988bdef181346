package ppo

// SubtreeSize returns the number of nodes in x's subtree, including x.
func (idx *Index) SubtreeSize(x int32) int32 { return idx.size[x] }
