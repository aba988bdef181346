// Package storage provides the binary serialization substrate for the index
// structures: the snapshot container FliX persists and opens (snapshot.go —
// offset-based, checksummed, servable from a read-only memory mapping) and
// the canonical compact stream it only measures (storage.go).  It describes
// bytes — the container, section encoders and kinds, packed arrays, the
// stream helpers — and nothing an index answers.  One writer,
// `storage.SnapshotWriter`, writes every byte: attached, a container;
// detached, bare bytes (`storage.EncodeSectionBody` for one section body,
// `storage.WriteStream` for the stream).
//
// # The canonical stream
//
// The paper stores all indexes in database tables and reports their sizes
// (Table 1).  This reproduction serializes each index into a tagged stream
// of varints, delta-coded ID lists and strings, with no derived arrays; the
// reported "index size" is the number of bytes WriteStream emits, and the
// determinism tests compare those bytes.  The stream is write-only: nothing
// reads it back, so it has no reader, no version negotiation and no
// corruption handling, and a stream handed to an opener fails the
// container's magic check (`TestSnapshotCorrupt`).
//
// # The container
//
// All fixed-width values are little-endian and every section starts 8-byte
// aligned:
//
//	header (32 B)       magic "FLIXSNP2", version u32, BOM u32, 16 B reserved
//	section 0           the manifest (written by package flix)
//	sections 1..n       one payload per meta document, of any section kind
//	section table       n+1 entries of {off u64, len u64, kind u32, pad u32}
//	footer (40 B)       tableOff u64, count u64, fileLen u64, CRC-64/ECMA u64, "2PNSXILF"
//
// The CRC covers everything before it, so truncation, bit flips and forged
// section bounds fail with ErrSnapshotCorrupt and a future version with
// ErrSnapshotVersion, never a panic (`TestSnapshotEveryBitFlip`,
// `TestSnapshotForgedSectionBounds`).  `storage.OpenSnapshotFile` maps the
// file read-only where the platform can; Close or, once the Snapshot is
// unreachable, a finalizer releases the mapping.  `storage.Snapshot.Equal` compares two
// images byte for byte, which the cache carry-over across swaps relies on.
//
// Opening is validation, not parsing: a section's arrays are views of the
// mapping over ranges checked once.  A nested array is stored as an offset
// table and one flat array (`storage.SnapshotWriter.Rows32`), and
// `storage.SectionData.Rows32` checks that the offsets start at 0, ascend
// and end at the array's length, which keeps every csr.Rows row in bounds.
//
// # Packed arrays
//
// `storage.PackedI32` stores an int32 array frame-of-reference bit-packed:
// blocks of 64 values carry a base and deltas at the block's width, and the
// block directory doubles as a skip index for binary searches.  Directories
// are bounds-proofed at open (width ≤ 32, offsets landing exactly on the
// payload length), so no read leaves the section even on adversarial input
// (`TestPackedI32Corrupt`).  `storage.PackedI32.Block` decodes a whole block
// with one 8-byte load per eight values up to width 8 and two up to 16,
// equal to At at every width and length (`TestPackedI32BlockMatchesAt`;
// `BenchmarkPackedBlock` times it; `TestPackedWidthHistogram` logs how the
// benchmark corpus's values spread over the widths).  An opener reserves all of a section's
// directories at once (`storage.SectionData.ReservePacked`), capped at one
// block per five unread bytes, so a forged count cannot size the
// allocation (`TestReservePacked`).
package storage
