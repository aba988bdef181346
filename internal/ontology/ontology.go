// Package ontology provides the tag-similarity component behind the
// semantic vagueness of FliX's motivating query language (§1.1).
//
// The XXL search engine relaxes a query tag like "movie" to semantically
// similar tags like "science-fiction" or "film", each with a similarity
// score in (0, 1] that scales the relevance of results found under the
// relaxed tag.  This package implements the ontology as a weighted
// similarity graph over element names, with transitive similarity along
// paths (scores multiply, best path wins) — a small stand-in for WordNet or
// a topic-specific ontology.
package ontology

import (
	"container/heap"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Ontology is a weighted undirected similarity graph over element names.
// The zero value is unusable; use New.
type Ontology struct {
	adj map[string]map[string]float64
}

// New returns an empty ontology.
func New() *Ontology {
	return &Ontology{adj: make(map[string]map[string]float64)}
}

// AddSimilarity records that a and b are semantically similar with the
// given score in (0, 1).  Scores are symmetric.  Adding the same pair again
// keeps the higher score.
func (o *Ontology) AddSimilarity(a, b string, score float64) error {
	if !(score > 0 && score < 1) { // NaN fails both comparisons
		return fmt.Errorf("ontology: score %g out of (0, 1)", score)
	}
	if a == b {
		return fmt.Errorf("ontology: self similarity for %q", a)
	}
	o.addEdge(a, b, score)
	o.addEdge(b, a, score)
	return nil
}

func (o *Ontology) addEdge(a, b string, score float64) {
	m := o.adj[a]
	if m == nil {
		m = make(map[string]float64)
		o.adj[a] = m
	}
	if score > m[b] {
		m[b] = score
	}
}

// WeightedTag is a tag with its similarity score to a query tag.
type WeightedTag struct {
	Tag   string
	Score float64
}

// Similar returns every tag whose best-path similarity to the query tag is
// at least minScore, including the tag itself at score 1, sorted by
// descending score (ties alphabetically).  Path scores multiply, so
// transitive neighbours decay naturally.
func (o *Ontology) Similar(tag string, minScore float64) []WeightedTag {
	if minScore <= 0 {
		minScore = 1e-9
	}
	best := map[string]float64{tag: 1}
	h := &wtHeap{{Tag: tag, Score: 1}}
	for h.Len() > 0 {
		cur := heap.Pop(h).(WeightedTag)
		if cur.Score < best[cur.Tag] {
			continue // stale entry
		}
		for n, s := range o.adj[cur.Tag] {
			ns := cur.Score * s
			if ns >= minScore && ns > best[n] {
				best[n] = ns
				heap.Push(h, WeightedTag{Tag: n, Score: ns})
			}
		}
	}
	out := make([]WeightedTag, 0, len(best))
	for t, s := range best {
		out = append(out, WeightedTag{Tag: t, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Tag < out[j].Tag
	})
	return out
}

// Parse loads an ontology from a simple line format: "tagA tagB score",
// one edge per line; empty lines and #-comments are skipped.
func Parse(text string) (*Ontology, error) {
	o := New()
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("ontology: line %d: want 'tagA tagB score', got %q", ln+1, line)
		}
		score, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("ontology: line %d: bad score %q", ln+1, fields[2])
		}
		if err := o.AddSimilarity(fields[0], fields[1], score); err != nil {
			return nil, fmt.Errorf("ontology: line %d: %w", ln+1, err)
		}
	}
	return o, nil
}

// wtHeap is a max-heap over similarity scores (Dijkstra on products).
type wtHeap []WeightedTag

func (h wtHeap) Len() int           { return len(h) }
func (h wtHeap) Less(i, j int) bool { return h[i].Score > h[j].Score }
func (h wtHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *wtHeap) Push(x any)        { *h = append(*h, x.(WeightedTag)) }
func (h *wtHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
