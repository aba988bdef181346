package apex

// v2 snapshot section codec.  The canonical stream (WriteTo) holds the class
// array, the summary edges and a copy of the data adjacency.  The v2 section
// stores every structure the probes touch — extents, predecessor lists and
// both tag-reachability bitset families as raw u64 words — so OpenSection
// only lays zero-copy views and subslice headers over the snapshot bytes;
// the summary is never re-derived.
//
//	u32 n, numClasses, numTags, words, totalSucc, totalPred
//	class    []int32 n
//	classTag []int32 numClasses
//	extentOff []u32 numClasses+1            extentData []int32 n
//	succOff   []u32 numClasses+1            succData   []int32 totalSucc
//	predOff   []u32 numClasses+1            predData   []int32 totalPred
//	reachTags   []u64 numClasses×words
//	reachedTags []u64 numClasses×words

import (
	"fmt"

	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

// SectionKind implements storage.SectionEncoder.
func (idx *Index) SectionKind() uint32 { return storage.SectionAPEX }

// EncodeSection implements storage.SectionEncoder.
func (idx *Index) EncodeSection(sw *storage.SnapshotWriter) {
	n := len(idx.class)
	numClasses := len(idx.extents)
	numTags := idx.g.NumTags()
	words := (numTags + 63) / 64
	totalSucc, totalPred := 0, 0
	for c := 0; c < numClasses; c++ {
		totalSucc += len(idx.classSucc[c])
		totalPred += len(idx.classPred[c])
	}
	sw.U32(uint32(n))
	sw.U32(uint32(numClasses))
	sw.U32(uint32(numTags))
	sw.U32(uint32(words))
	sw.U32(uint32(totalSucc))
	sw.U32(uint32(totalPred))
	sw.I32s(idx.class)
	sw.I32s(idx.classTag)
	writeNested := func(rows [][]int32) {
		offs := make([]uint32, len(rows)+1)
		for i, r := range rows {
			offs[i+1] = offs[i] + uint32(len(r))
		}
		sw.U32s(offs)
		for _, r := range rows {
			sw.I32s(r)
		}
	}
	writeNested(idx.extents)
	writeNested(idx.classSucc)
	writeNested(idx.classPred)
	sw.Align(8)
	for _, bs := range idx.reachTags {
		sw.U64s(bs)
	}
	for _, bs := range idx.reachedTags {
		sw.U64s(bs)
	}
}

// OpenSection reconstructs an Index aliasing the section bytes.  The only
// allocations are the per-class slice headers; class values and summary
// edges are range-checked in one scan so probes cannot index out of
// bounds.
func OpenSection(g *lgraph.LGraph, data []byte) (pathindex.Index, error) {
	d := storage.NewSectionData(data)
	n := int(d.U32())
	numClasses := int(d.U32())
	numTags := int(d.U32())
	words := int(d.U32())
	totalSucc := int(d.U32())
	totalPred := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n != g.NumNodes() || numTags != g.NumTags() {
		return nil, fmt.Errorf("apex: section has %d nodes/%d tags, graph %d/%d",
			n, numTags, g.NumNodes(), g.NumTags())
	}
	if numClasses > n || words != (numTags+63)/64 {
		return nil, fmt.Errorf("apex: %d classes / %d bitset words invalid for %d nodes, %d tags",
			numClasses, words, n, numTags)
	}
	maxEdges := numClasses * numClasses
	if totalSucc > maxEdges || totalPred > maxEdges {
		return nil, fmt.Errorf("apex: summary edge counts %d/%d exceed %d²", totalSucc, totalPred, numClasses)
	}
	idx := &Index{
		g:        g,
		class:    d.I32s(n),
		classTag: d.I32s(numClasses),
	}
	readNested := func(total int) [][]int32 {
		offs := d.PrefixOffsets(numClasses, uint32(total))
		flat := d.I32s(total)
		if d.Err() != nil {
			return nil
		}
		rows := make([][]int32, numClasses)
		for i := range rows {
			rows[i] = flat[offs[i]:offs[i+1]:offs[i+1]]
		}
		return rows
	}
	idx.extents = readNested(n)
	idx.classSucc = readNested(totalSucc)
	idx.classPred = readNested(totalPred)
	d.Align(8)
	reachWords := d.U64s(numClasses * words)
	reachedWords := d.U64s(numClasses * words)
	if err := d.Err(); err != nil {
		return nil, err
	}
	for _, c := range idx.class {
		if c < 0 || int(c) >= numClasses {
			return nil, fmt.Errorf("apex: class %d out of range", c)
		}
	}
	for c := 0; c < numClasses; c++ {
		for _, v := range idx.extents[c] {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("apex: extent node %d out of range", v)
			}
		}
		for _, s := range idx.classSucc[c] {
			if s < 0 || int(s) >= numClasses {
				return nil, fmt.Errorf("apex: summary edge to class %d out of range", s)
			}
		}
		for _, p := range idx.classPred[c] {
			if p < 0 || int(p) >= numClasses {
				return nil, fmt.Errorf("apex: summary edge from class %d out of range", p)
			}
		}
	}
	idx.reachTags = make([]bitset, numClasses)
	idx.reachedTags = make([]bitset, numClasses)
	for c := 0; c < numClasses; c++ {
		idx.reachTags[c] = bitset(reachWords[c*words : (c+1)*words : (c+1)*words])
		idx.reachedTags[c] = bitset(reachedWords[c*words : (c+1)*words : (c+1)*words])
	}
	return idx, nil
}
