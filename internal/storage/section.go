package storage

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
// serialize themselves in a compressed section encoding: PPO alone, whose
// raw and compressed sections are two views that trade size for probe
// speed.  The snapshot writer encodes both forms and keeps the compressed
// one only when it pays (per-section ratio threshold).  HOPI has one
// codec, already compressed (its SectionKind is SectionHOPIC), and APEX,
// whose sections are small fixed arrays and bitsets, has one raw codec.
type CompressedSectionEncoder interface {
	SectionEncoder
	// CompressedSectionKind returns the section kind tag of the
	// compressed encoding.
	CompressedSectionKind() uint32
	// EncodeCompressedSection writes the compressed section body.
	EncodeCompressedSection(sw *SnapshotWriter)
}

// Section kinds of the v2 snapshot format.  The kind is stored per section
// in the section table; flix.OpenSnapshot dispatches on it.  Kind 3 was the
// raw 2-hop-cover section up to container version 3, and kind 5 the
// transitive closure's, which no serving configuration builds: no opener
// reads either, so a section of such a kind is refused as corrupt.
const (
	// SectionManifest is the flix-level manifest (configuration, meta
	// document count, per-meta link-table fingerprints).
	SectionManifest uint32 = 1
	// SectionPPO is a pre/postorder index section (internal/ppo).
	SectionPPO uint32 = 2
	// SectionAPEX is a structural-summary index section (internal/apex).
	SectionAPEX uint32 = 4
	// SectionPPOC is the compressed (frame-of-reference bit-packed)
	// pre/postorder section (internal/ppo).
	SectionPPOC uint32 = 6
	// SectionHOPIC is the 2-hop-cover section (internal/hopi), HOPI's only
	// codec: packed offsets and prefix-truncated varint runs.
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
	case SectionAPEX:
		return "apex"
	case SectionPPOC:
		return "ppo-c"
	case SectionHOPIC:
		return "hopi-c"
	}
	return "unknown"
}
