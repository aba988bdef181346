package apex

// v2 snapshot section codec.  The canonical stream (EncodeStream) holds the class
// array, the summary edges and a copy of the data adjacency.  The v2 section
// stores every structure the probes touch — extents, predecessor lists and
// both tag-reachability bitset families as raw u64 words — so OpenSection
// only lays views over the snapshot bytes; the summary is never
// re-derived.
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
	sw.U32(uint32(len(idx.class)))
	sw.U32(uint32(len(idx.classTag)))
	sw.U32(uint32(idx.g.NumTags()))
	sw.U32(uint32(idx.reachTags.words))
	sw.U32(uint32(len(idx.classSucc.Data)))
	sw.U32(uint32(len(idx.classPred.Data)))
	sw.I32s(idx.class)
	sw.I32s(idx.classTag)
	sw.Rows32(idx.extents)
	sw.Rows32(idx.classSucc)
	sw.Rows32(idx.classPred)
	sw.Align(8)
	sw.U64s(idx.reachTags.bits)
	sw.U64s(idx.reachedTags.bits)
}

// OpenSection returns an Index whose arrays, rows and bitsets included, are
// views of the section bytes: it allocates only the Index.  Class values
// and summary edges are range-checked in one scan so probes cannot index
// out of bounds.
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
		g:         g,
		class:     d.I32s(n),
		classTag:  d.I32s(numClasses),
		extents:   d.Rows32(numClasses, n),
		classSucc: d.Rows32(numClasses, totalSucc),
		classPred: d.Rows32(numClasses, totalPred),
	}
	d.Align(8)
	idx.reachTags = bitsets{words: words, bits: d.U64s(numClasses * words)}
	idx.reachedTags = bitsets{words: words, bits: d.U64s(numClasses * words)}
	if err := d.Err(); err != nil {
		return nil, err
	}
	for _, c := range idx.class {
		if c < 0 || int(c) >= numClasses {
			return nil, fmt.Errorf("apex: class %d out of range", c)
		}
	}
	for c := int32(0); c < int32(numClasses); c++ {
		for _, v := range idx.extents.Row(c) {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("apex: extent node %d out of range", v)
			}
		}
		for _, s := range idx.classSucc.Row(c) {
			if s < 0 || int(s) >= numClasses {
				return nil, fmt.Errorf("apex: summary edge to class %d out of range", s)
			}
		}
		for _, p := range idx.classPred.Row(c) {
			if p < 0 || int(p) >= numClasses {
				return nil, fmt.Errorf("apex: summary edge from class %d out of range", p)
			}
		}
	}
	return idx, nil
}
