package hopi

// v2 snapshot section codec.  HOPI's labels and postings dominate index
// size, so unlike ppo/apex/tc — whose sections are fixed-width arrays the
// heap Index type can alias directly — the hopi section keeps them as
// delta-encoded varint runs and serves them through a dedicated View that
// decodes lazily per probe.  Nothing is decoded at open time: the four
// blobs stay raw bytes, and each probe walks storage.Cursor values over
// the mapped region.
//
//	u32 n
//	u32 inLen, outLen, hubInLen, hubOutLen   (blob byte lengths)
//	inOff, outOff         []u32 n+1           byte offsets into the blobs
//	hubInOff, hubOutOff   []u32 n+1
//	in, out, hubIn, hubOut blobs              raw varint runs
//
// Label runs (in/out, hub-ascending):    uvarint(hub Δ), uvarint(dist)
// Posting runs (hubIn/hubOut, by (dist, node)):
//	uvarint(dist Δ), varint(node Δ)       (zig-zag; node may regress)

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

// SectionKind implements storage.SectionEncoder.
func (idx *Index) SectionKind() uint32 { return storage.SectionHOPI }

// EncodeSection implements storage.SectionEncoder.
func (idx *Index) EncodeSection(sw *storage.SnapshotWriter) {
	inOff, inB := encodeLabelRuns(idx.in)
	outOff, outB := encodeLabelRuns(idx.out)
	hubInOff, hubInB := encodePostingRuns(idx.hubIn)
	hubOutOff, hubOutB := encodePostingRuns(idx.hubOut)
	sw.U32(uint32(len(idx.in)))
	sw.U32(uint32(len(inB)))
	sw.U32(uint32(len(outB)))
	sw.U32(uint32(len(hubInB)))
	sw.U32(uint32(len(hubOutB)))
	sw.U32s(inOff)
	sw.U32s(outOff)
	sw.U32s(hubInOff)
	sw.U32s(hubOutOff)
	sw.Raw(inB)
	sw.Raw(outB)
	sw.Raw(hubInB)
	sw.Raw(hubOutB)
}

// encodeLabelRuns delta-encodes hub-sorted label slices: hub deltas are
// non-negative, so both fields are plain uvarints.
func encodeLabelRuns(labels [][]entry) ([]uint32, []byte) {
	offs := make([]uint32, len(labels)+1)
	var blob []byte
	for i, l := range labels {
		prev := int32(0)
		for _, e := range l {
			blob = binary.AppendUvarint(blob, uint64(e.hub-prev))
			prev = e.hub
			blob = binary.AppendUvarint(blob, uint64(e.dist))
		}
		offs[i+1] = uint32(len(blob))
	}
	return offs, blob
}

// encodePostingRuns delta-encodes (dist, node)-sorted postings: distance
// deltas are non-negative uvarints, node deltas may regress and use
// zig-zag varints.
func encodePostingRuns(postings [][]entry) ([]uint32, []byte) {
	offs := make([]uint32, len(postings)+1)
	var blob []byte
	for i, p := range postings {
		prevD, prevN := int32(0), int32(0)
		for _, e := range p {
			blob = binary.AppendUvarint(blob, uint64(e.dist-prevD))
			blob = binary.AppendVarint(blob, int64(e.hub-prevN))
			prevD, prevN = e.dist, e.hub
		}
		offs[i+1] = uint32(len(blob))
	}
	return offs, blob
}

// View is an mmap-backed HOPI index: the probe surface of Index served
// directly from snapshot bytes.  Labels and postings are decoded per probe
// through stack-resident cursors; the only steady-state heap traffic is
// the pooled merge scratch, so enumeration stays allocation-free exactly
// like the heap index.
type View struct {
	g   *lgraph.LGraph
	n   int32
	raw []byte // whole section, for EncodeSection passthrough

	// kind and tight select the codec: SectionHOPI serves plain u32
	// offset tables and the loose varint runs, SectionHOPIC (csection.go)
	// serves bit-packed offset tables and the prefix-truncated runs.
	kind  uint32
	tight bool

	inOff, outOff       offTab
	hubInOff, hubOutOff offTab
	inB, outB           []byte
	hubInB, hubOutB     []byte

	// tagIn/tagOut cache decoded, tag-filtered postings per queried tag —
	// the same trade the heap index makes, and the one place the View
	// materializes entries.
	mu     sync.Mutex
	tagIn  map[lgraph.Tag][][]entry
	tagOut map[lgraph.Tag][][]entry

	merge sync.Pool
}

var _ pathindex.Index = (*View)(nil)
var _ storage.SectionEncoder = (*View)(nil)

// OpenSection lays a View over the section bytes.  Only the envelope (the
// offset tables) is validated; the varint runs themselves are not walked —
// that would be the parse step v2 exists to avoid.  Probes bounds-check
// every decoded hub and node instead, so even a forged stream degrades to
// a truncated enumeration rather than a panic.
func OpenSection(g *lgraph.LGraph, data []byte) (pathindex.Index, error) {
	d := storage.NewSectionData(data)
	n := int(d.U32())
	inLen := int(d.U32())
	outLen := int(d.U32())
	hubInLen := int(d.U32())
	hubOutLen := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n != g.NumNodes() {
		return nil, fmt.Errorf("hopi: section has %d nodes, graph %d", n, g.NumNodes())
	}
	v := &View{g: g, n: int32(n), raw: data, kind: storage.SectionHOPI}
	v.inOff = offTab{raw: d.PrefixOffsets(n, uint32(inLen))}
	v.outOff = offTab{raw: d.PrefixOffsets(n, uint32(outLen))}
	v.hubInOff = offTab{raw: d.PrefixOffsets(n, uint32(hubInLen))}
	v.hubOutOff = offTab{raw: d.PrefixOffsets(n, uint32(hubOutLen))}
	v.inB = d.Bytes(inLen)
	v.outB = d.Bytes(outLen)
	v.hubInB = d.Bytes(hubInLen)
	v.hubOutB = d.Bytes(hubOutLen)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return v, nil
}

// SectionKind implements storage.SectionEncoder: the kind the View was
// opened as, so re-persisting keeps the same encoding.
func (v *View) SectionKind() uint32 { return v.kind }

// EncodeSection re-emits the section the View was opened from, verbatim —
// re-snapshotting an mmap-backed generation is a byte copy.
func (v *View) EncodeSection(sw *storage.SnapshotWriter) { sw.Raw(v.raw) }

// offTab is one per-node byte-offset table, either a zero-copy u32 view
// (raw sections) or a bit-packed array (compressed sections).  Both forms
// are validated monotonic and in-bounds at open time.
type offTab struct {
	raw    []uint32
	packed storage.PackedI32
}

func (o *offTab) at(i int32) uint32 {
	if o.raw != nil {
		return o.raw[i]
	}
	return uint32(o.packed.At(i))
}

// run returns the raw byte run of element x in a blob.
func run(offs *offTab, blob []byte, x int32) []byte {
	return blob[offs.at(x):offs.at(x+1)]
}

// nextLabel decodes one (hub, dist) label element; prev carries the hub
// delta chain.  The tight codec folds distances 0..2 into the hub delta's
// low bits (tag 3 escapes to an explicit uvarint) — 2-hop label distances
// are almost always tiny, so most entries are one varint instead of two.
func nextLabel(c *storage.Cursor, prev *int32, tight bool) (hub, dist int32, ok bool) {
	if tight {
		v, ok := c.Uvarint()
		if !ok {
			return 0, 0, false
		}
		*prev += int32(v >> 2)
		d := int32(v & 3)
		if d == 3 {
			e, ok := c.Uvarint()
			if !ok {
				return 0, 0, false
			}
			d += int32(e)
		}
		return *prev, d, true
	}
	dh, ok := c.Uvarint()
	if !ok {
		return 0, 0, false
	}
	dd, ok := c.Uvarint()
	if !ok {
		return 0, 0, false
	}
	*prev += int32(dh)
	return *prev, int32(dd), true
}

// labelDist merges x's Lout run and y's Lin run by hub — the 2-hop
// distance join, straight off the mapped bytes.
func (v *View) labelDist(xOut, yIn []byte) int32 {
	co := storage.Cursor{B: xOut}
	ci := storage.Cursor{B: yIn}
	var oprev, iprev int32
	best := infinity
	ohub, odist, ook := nextLabel(&co, &oprev, v.tight)
	ihub, idist, iok := nextLabel(&ci, &iprev, v.tight)
	for ook && iok {
		switch {
		case ohub < ihub:
			ohub, odist, ook = nextLabel(&co, &oprev, v.tight)
		case ohub > ihub:
			ihub, idist, iok = nextLabel(&ci, &iprev, v.tight)
		default:
			if s := odist + idist; s >= 0 && s < best {
				best = s
			}
			ohub, odist, ook = nextLabel(&co, &oprev, v.tight)
			ihub, idist, iok = nextLabel(&ci, &iprev, v.tight)
		}
	}
	return best
}

// Name implements pathindex.Index.
func (v *View) Name() string { return "hopi" }

// NumNodes implements pathindex.Index.
func (v *View) NumNodes() int { return int(v.n) }

// Reachable implements pathindex.Index.
func (v *View) Reachable(x, y int32) bool {
	return v.labelDist(run(&v.outOff, v.outB, x), run(&v.inOff, v.inB, y)) < infinity
}

// Distance implements pathindex.Index.
func (v *View) Distance(x, y int32) (int32, bool) {
	d := v.labelDist(run(&v.outOff, v.outB, x), run(&v.inOff, v.inB, y))
	if d == infinity {
		return 0, false
	}
	return d, true
}

// EachReachable implements pathindex.Index.
func (v *View) EachReachable(x int32, fn pathindex.Visit) {
	v.eachVia(run(&v.outOff, v.outB, x), &v.hubInOff, v.hubInB, nil, fn)
}

// EachReachableByTag implements pathindex.Index.
func (v *View) EachReachableByTag(x int32, tag lgraph.Tag, fn pathindex.Visit) {
	if tag == lgraph.NoTag {
		return
	}
	v.eachVia(run(&v.outOff, v.outB, x), nil, nil, v.taggedPostings(tag, false), fn)
}

// EachReaching implements pathindex.Index.
func (v *View) EachReaching(x int32, fn pathindex.Visit) {
	v.eachVia(run(&v.inOff, v.inB, x), &v.hubOutOff, v.hubOutB, nil, fn)
}

// EachReachingByTag implements pathindex.Index.
func (v *View) EachReachingByTag(x int32, tag lgraph.Tag, fn pathindex.Visit) {
	if tag == lgraph.NoTag {
		return
	}
	v.eachVia(run(&v.inOff, v.inB, x), nil, nil, v.taggedPostings(tag, true), fn)
}

// nextPosting decodes one (dist, node) posting element; prevD/prevN carry
// the delta chains.  The tight codec folds distance deltas 0..2 into the
// zig-zag node delta's low bits with a tag-3 escape, mirroring the tight
// label codec.
func nextPosting(c *storage.Cursor, prevD, prevN *int32, tight bool) bool {
	if tight {
		v, ok := c.Uvarint()
		if !ok {
			return false
		}
		zz := v >> 2
		*prevN += int32(int64(zz>>1) ^ -int64(zz&1))
		dd := int32(v & 3)
		if dd == 3 {
			e, ok := c.Uvarint()
			if !ok {
				return false
			}
			dd += int32(e)
		}
		*prevD += dd
		return true
	}
	dd, ok := c.Uvarint()
	if !ok {
		return false
	}
	dn, ok := c.Varint()
	if !ok {
		return false
	}
	*prevD += int32(dd)
	*prevN += int32(dn)
	return true
}

// decodePostings materializes one hub's posting run.
func decodePostings(b []byte, n int32, tight bool) []entry {
	c := storage.Cursor{B: b}
	var out []entry
	prevD, prevN := int32(0), int32(0)
	for {
		if !nextPosting(&c, &prevD, &prevN, tight) {
			return out
		}
		if prevN < 0 || prevN >= n || prevD < 0 {
			return out
		}
		out = append(out, entry{hub: prevN, dist: prevD})
	}
}

// taggedPostings mirrors (*Index).taggedPostings: decoded, tag-filtered
// postings built on first use per tag and cached.
func (v *View) taggedPostings(tag lgraph.Tag, reverse bool) [][]entry {
	v.mu.Lock()
	defer v.mu.Unlock()
	cache := &v.tagIn
	offs, blob := &v.hubInOff, v.hubInB
	if reverse {
		cache = &v.tagOut
		offs, blob = &v.hubOutOff, v.hubOutB
	}
	if *cache == nil {
		*cache = make(map[lgraph.Tag][][]entry)
	}
	if p, ok := (*cache)[tag]; ok {
		return p
	}
	filtered := make([][]entry, v.n)
	for h := int32(0); h < v.n; h++ {
		var keep []entry
		for _, e := range decodePostings(run(offs, blob, h), v.n, v.tight) {
			if v.g.Tag(e.hub) == tag {
				keep = append(keep, e)
			}
		}
		filtered[h] = keep
	}
	(*cache)[tag] = filtered
	return filtered
}

// vCursor is one posting stream position in the View's k-way merge.  It
// runs in one of two modes: raw (decoding a varint run in place) or
// decoded (walking a cached tag-filtered []entry).
type vCursor struct {
	c       storage.Cursor
	entries []entry
	epos    int
	tight   bool  // raw-mode codec selector
	prevD   int32 // raw-mode delta chains
	prevN   int32
	base    int32 // label distance added to every posting distance
	dist    int32 // current combined distance (cached key)
	node    int32 // current node (cached key)
}

// advance steps to the next posting; false at stream end.  Raw-mode
// anomalies (possible only past a forged checksum) read as stream end.
func (vc *vCursor) advance(n int32) bool {
	if vc.entries != nil {
		if vc.epos >= len(vc.entries) {
			return false
		}
		e := vc.entries[vc.epos]
		vc.epos++
		vc.dist = vc.base + e.dist
		vc.node = e.hub
		return true
	}
	if !nextPosting(&vc.c, &vc.prevD, &vc.prevN, vc.tight) {
		return false
	}
	if vc.prevN < 0 || vc.prevN >= n || vc.prevD < 0 {
		return false
	}
	vc.dist = vc.base + vc.prevD
	vc.node = vc.prevN
	return true
}

// viewScratch pools the merge state, mirroring mergeScratch on the heap
// index: heap backing array plus an epoch-stamped duplicate table.
type viewScratch struct {
	h    []vCursor
	seen []int64
	tick int64
}

// eachVia is (*Index).eachVia re-expressed over snapshot bytes: the label
// run names the hubs, each hub contributes one posting cursor, and a
// hand-rolled min-heap merges them in ascending (dist, node) order with
// epoch-based dedup.  Exactly one of (postOff, postB) and tagged is set.
func (v *View) eachVia(label []byte, postOff *offTab, postB []byte, tagged [][]entry, fn pathindex.Visit) {
	ms, _ := v.merge.Get().(*viewScratch)
	if ms == nil {
		ms = &viewScratch{seen: make([]int64, v.n)}
	}
	ms.tick++
	tick := ms.tick
	h := ms.h[:0]
	lc := storage.Cursor{B: label}
	var prevHub int32
	for {
		hub, ldist, ok := nextLabel(&lc, &prevHub, v.tight)
		if !ok {
			break
		}
		if hub < 0 || hub >= v.n || ldist < 0 {
			break
		}
		vc := vCursor{base: ldist, tight: v.tight}
		if tagged != nil {
			vc.entries = tagged[hub]
		} else {
			vc.c = storage.Cursor{B: run(postOff, postB, hub)}
		}
		if vc.advance(v.n) {
			h = append(h, vc)
		}
	}
	vheapInit(h)
	for len(h) > 0 {
		cur := &h[0]
		node, dist := cur.node, cur.dist
		if cur.advance(v.n) {
			vheapFix(h, 0)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			if len(h) > 0 {
				vheapFix(h, 0)
			}
		}
		if ms.seen[node] == tick {
			continue
		}
		ms.seen[node] = tick
		if !fn(node, dist) {
			break
		}
	}
	ms.h = h[:0]
	v.merge.Put(ms)
}

func vless(h []vCursor, i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}

func vheapInit(h []vCursor) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		vheapFix(h, i)
	}
}

func vheapFix(h []vCursor, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && vless(h, l, smallest) {
			smallest = l
		}
		if r < len(h) && vless(h, r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// decodeLabels materializes one label blob back into per-node slices.
func decodeLabels(offs *offTab, blob []byte, n int32, tight bool) [][]entry {
	labels := make([][]entry, n)
	for x := int32(0); x < n; x++ {
		c := storage.Cursor{B: run(offs, blob, x)}
		var prev int32
		var l []entry
		for {
			hub, dist, ok := nextLabel(&c, &prev, tight)
			if !ok {
				break
			}
			l = append(l, entry{hub: hub, dist: dist})
		}
		labels[x] = l
	}
	return labels
}

// WriteTo implements pathindex.Index by re-emitting the exact canonical
// stream a heap-built index would write: an mmap-backed generation measures
// and hashes the same as the build it was persisted from.
func (v *View) WriteTo(w io.Writer) (int64, error) {
	sw := storage.NewWriter(w)
	sw.Header("hopi")
	sw.Uvarint(uint64(v.n))
	writeLabels := func(labels [][]entry) {
		for _, l := range labels {
			sw.Uvarint(uint64(len(l)))
			prev := int32(0)
			for _, e := range l {
				sw.Varint(int64(e.hub - prev))
				prev = e.hub
				sw.Varint(int64(e.dist))
			}
		}
	}
	writeLabels(decodeLabels(&v.inOff, v.inB, v.n, v.tight))
	writeLabels(decodeLabels(&v.outOff, v.outB, v.n, v.tight))
	return sw.Flush()
}
