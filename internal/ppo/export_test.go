package ppo

// WithoutDerived is withoutDerived for the external fuzz test.
var WithoutDerived = withoutDerived

// SubtreeSize returns the number of nodes in x's subtree, including x.
func (idx *Index) SubtreeSize(x int32) int32 { return idx.size[x] }
