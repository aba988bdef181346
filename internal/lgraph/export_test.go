package lgraph

// TagHistogram returns, for each tag, the number of nodes carrying it.
func (g *LGraph) TagHistogram() []int {
	h := make([]int, g.numTags)
	for _, t := range g.tags {
		h[t]++
	}
	return h
}
