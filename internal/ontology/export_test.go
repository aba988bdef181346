package ontology

import "sort"

// Score returns the best-path similarity between two tags (1 when equal, 0
// when unrelated).
func (o *Ontology) Score(a, b string) float64 {
	if a == b {
		return 1
	}
	for _, wt := range o.Similar(a, 1e-9) {
		if wt.Tag == b {
			return wt.Score
		}
	}
	return 0
}

// Tags returns every tag mentioned in the ontology, sorted.
func (o *Ontology) Tags() []string {
	out := make([]string, 0, len(o.adj))
	for t := range o.adj {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
