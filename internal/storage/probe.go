package storage

// Visit receives one enumerated (node, dist) pair.  Returning false stops
// the enumeration.  It is the callback type of every probe method; the
// pathindex package aliases it so strategy implementations written against
// either package satisfy both.
type Visit func(node, dist int32) bool

// Probe is the storage-agnostic query surface of one meta document's
// connection index: the exact set of operations the Path Expression
// Evaluator issues per frontier pop.  Both backends implement it —
// heap-built indexes (flix.Build) and mmap-backed v2 snapshot
// views (flix.OpenSnapshot) — which is what makes generations
// interchangeable at query time: the evaluator, the streaming/partial
// paths and the sharded tier never learn where the bytes live.
//
// Contract (shared with pathindex.Index, which embeds this interface):
//
//   - Reachability follows the descendants-or-self axis; every node
//     reaches itself at distance 0.
//   - Enumeration methods stream results in ascending (dist, node) order.
//   - Tags are the local graph's dictionary-compressed element names
//     (lgraph.Tag, an int32); a negative tag matches nothing.
//   - Implementations must be safe for concurrent probes and must not
//     allocate on the steady-state enumeration path (pooled scratch only),
//     so the evaluator hot path stays 0 allocs/op over this interface.
type Probe interface {
	// NumNodes returns the number of nodes of the indexed graph.
	NumNodes() int

	// Reachable reports whether there is a (possibly empty) path x -> y.
	Reachable(x, y int32) bool

	// Distance returns the shortest-path distance from x to y, and false
	// if y is not reachable from x.
	Distance(x, y int32) (int32, bool)

	// EachReachable enumerates every node reachable from x (including x,
	// at distance 0) in ascending distance order.
	EachReachable(x int32, fn Visit)

	// EachReachableByTag enumerates the reachable nodes carrying tag, in
	// ascending distance order, descendants-or-self semantics.
	EachReachableByTag(x int32, tag int32, fn Visit)

	// EachReaching enumerates every node that reaches x (the
	// ancestors-or-self axis), in ascending distance order.
	EachReaching(x int32, fn Visit)

	// EachReachingByTag is EachReaching restricted to one tag.
	EachReachingByTag(x int32, tag int32, fn Visit)
}

// SectionEncoder is implemented by index backends that can serialize
// themselves as one v2 snapshot section.  EncodeSection writes the section
// body through the SnapshotWriter (between the caller's Begin/End);
// errors accumulate in the writer.
type SectionEncoder interface {
	// SectionKind returns the section kind tag identifying the decoder.
	SectionKind() uint32
	// EncodeSection writes the section body.
	EncodeSection(sw *SnapshotWriter)
}

// CompressedSectionEncoder is implemented by index backends that can also
// serialize themselves in a compressed section encoding.  The snapshot
// writer encodes both forms and keeps the compressed one only when it pays
// (per-section ratio threshold); backends without this interface — APEX
// and tc, whose sections are small fixed arrays and bitsets — always stay
// raw.
type CompressedSectionEncoder interface {
	SectionEncoder
	// CompressedSectionKind returns the section kind tag of the
	// compressed encoding.
	CompressedSectionKind() uint32
	// EncodeCompressedSection writes the compressed section body.
	EncodeCompressedSection(sw *SnapshotWriter)
}

// Section kinds of the v2 snapshot format.  The kind is stored per section
// in the section table; flix.OpenSnapshot dispatches on it.
const (
	// SectionManifest is the flix-level manifest (configuration, meta
	// document count, per-meta link-table fingerprints).
	SectionManifest uint32 = 1
	// SectionPPO is a pre/postorder index section (internal/ppo).
	SectionPPO uint32 = 2
	// SectionHOPI is a 2-hop-cover index section (internal/hopi).
	SectionHOPI uint32 = 3
	// SectionAPEX is a structural-summary index section (internal/apex).
	SectionAPEX uint32 = 4
	// SectionTC is a transitive-closure index section (internal/tc).
	SectionTC uint32 = 5
	// SectionPPOC is the compressed (frame-of-reference bit-packed)
	// pre/postorder section (internal/ppo).
	SectionPPOC uint32 = 6
	// SectionHOPIC is the compressed (packed offsets, prefix-truncated
	// varint) 2-hop-cover section (internal/hopi).
	SectionHOPIC uint32 = 7
)

// IsCompressedKind reports whether kind is a compressed section encoding.
func IsCompressedKind(kind uint32) bool {
	return kind == SectionPPOC || kind == SectionHOPIC
}

// SectionKindName returns a short operator-facing name for a section kind.
func SectionKindName(kind uint32) string {
	switch kind {
	case SectionManifest:
		return "manifest"
	case SectionPPO:
		return "ppo"
	case SectionHOPI:
		return "hopi"
	case SectionAPEX:
		return "apex"
	case SectionTC:
		return "tc"
	case SectionPPOC:
		return "ppo-c"
	case SectionHOPIC:
		return "hopi-c"
	}
	return "unknown"
}
