package flix

// The persisted form of an index — the only one: WriteSnapshotV2 emits the
// offset-based mmap-able container (storage.SnapshotWriter), OpenSnapshot
// serves an index straight from the mapped bytes with no parse step.  The
// file carries a manifest section (configuration + per-meta-document
// fingerprints) followed by one section per meta document in decomposition
// order; the decomposition itself is not stored — Decompose derives it from
// the collection and the manifest configuration, once per collection — and
// the fingerprints (node count, runtime-link count, link hash) detect a
// mismatched collection before any query runs.

import (
	"errors"
	"fmt"
	"io"
	"runtime"

	"repro/internal/meta"
	"repro/internal/storage"
	"repro/internal/xmlgraph"
)

// ErrSnapshotCorrupt reports a v2 snapshot that failed structural
// validation or its checksum; it aliases storage.ErrCorrupt so callers can
// match either.  Truncations, bit flips and forged offsets all surface as
// errors wrapping it — never a panic, never silently wrong results.
var ErrSnapshotCorrupt = storage.ErrCorrupt

// WriteSnapshotV2 serializes the index in the v2 snapshot container, which
// OpenSnapshot serves directly from a memory-mapped file: fixed-width arrays
// are used in place and varint runs are decoded lazily per probe.
func (ix *Index) WriteSnapshotV2(w io.Writer) (int64, error) {
	return ix.WriteSnapshotV2With(w, SnapshotV2Options{})
}

// SnapshotV2Options tunes WriteSnapshotV2With.
type SnapshotV2Options struct {
	// Compress emits compressed section encodings (succinct bit-packed PPO
	// intervals, delta-packed HOPI labels) for every per-meta index that
	// supports one.  Each section is encoded both ways and the compressed
	// form is kept only when it is at most defaultCompressRatio of the raw
	// size — so sections with no compressed encoding (APEX, transitive
	// closure) or one that does not pay stay raw, per section, recorded in
	// the manifest.
	Compress bool
}

// defaultCompressRatio rejects compressed encodings that shave off less
// than 10%: below that the denser codec is not worth the extra probe work.
const defaultCompressRatio = 0.9

// writeManifest emits the manifest section.  rawLens, present only in
// compressed snapshots, appends a trailer recording each section's
// pre-compression size (0 = unknown / already compressed at build): a
// uvarint trailer version followed by one uvarint per meta document.
// Raw-mode output carries no trailer and stays byte-identical to what
// earlier writers produced.
func (ix *Index) writeManifest(sw *storage.SnapshotWriter, rawLens []int64) {
	sw.Begin(storage.SectionManifest)
	sw.Varint(int64(ix.cfg.Kind))
	sw.Varint(int64(ix.cfg.PartitionSize))
	sw.Varint(int64(ix.cfg.MinTreeDocs))
	sw.Varint(int64(ix.cfg.Load))
	sw.String(ix.cfg.Strategy)
	sw.Uvarint(uint64(len(ix.pis)))
	for i := range ix.pis {
		md := ix.set.Metas[i]
		sw.Uvarint(uint64(md.Graph.NumNodes()))
		sw.Uvarint(uint64(len(md.OutLinks)))
		sw.U64(linkHash(md))
	}
	if rawLens != nil {
		sw.Uvarint(manifestTrailerV1)
		for _, n := range rawLens {
			sw.Uvarint(uint64(n))
		}
	}
	sw.End()
}

// manifestTrailerV1 versions the optional manifest trailer.
const manifestTrailerV1 = 1

// WriteSnapshotV2With is WriteSnapshotV2 with explicit options.
func (ix *Index) WriteSnapshotV2With(w io.Writer, opts SnapshotV2Options) (int64, error) {
	// Re-persisting an open snapshot encodes from the per-meta-document
	// indexes, which alias the mapping without keeping it reachable; the
	// loops below range over a copy of ix.pis and would otherwise let a
	// caller's last reference die, and the finalizer unmap, mid-write.
	defer runtime.KeepAlive(ix)
	sw := storage.NewSnapshotWriter(w)
	if !opts.Compress {
		// The streaming raw path: byte-identical to earlier writers.
		ix.writeManifest(sw, nil)
		for i, p := range ix.pis {
			enc, ok := p.(storage.SectionEncoder)
			if !ok {
				return sw.Offset(), fmt.Errorf("flix: meta %d: %s index cannot encode a v2 section", i, p.Name())
			}
			sw.Begin(enc.SectionKind())
			enc.EncodeSection(sw)
			sw.End()
		}
		return sw.Finish()
	}

	// Compressed sections are chosen per section by measured ratio, and the
	// manifest (which precedes them in the file) records the raw sizes — so
	// encode every body up front, then stream the container.
	type section struct {
		kind uint32
		body []byte
	}
	secs := make([]section, len(ix.pis))
	rawLens := make([]int64, len(ix.pis))
	for i, p := range ix.pis {
		enc, ok := p.(storage.SectionEncoder)
		if !ok {
			return 0, fmt.Errorf("flix: meta %d: %s index cannot encode a v2 section", i, p.Name())
		}
		body, err := storage.EncodeSectionBody(enc.EncodeSection)
		if err != nil {
			return 0, fmt.Errorf("flix: meta %d: %w", i, err)
		}
		secs[i] = section{kind: enc.SectionKind(), body: body}
		if storage.IsCompressedKind(secs[i].kind) {
			// Already compressed (re-persisting an open compressed
			// snapshot); the original raw size is unknown.
			continue
		}
		cenc, ok := p.(storage.CompressedSectionEncoder)
		if !ok {
			continue
		}
		comp, err := storage.EncodeSectionBody(cenc.EncodeCompressedSection)
		if err != nil {
			return 0, fmt.Errorf("flix: meta %d: %w", i, err)
		}
		if float64(len(comp)) <= defaultCompressRatio*float64(len(body)) {
			rawLens[i] = int64(len(body))
			secs[i] = section{kind: cenc.CompressedSectionKind(), body: comp}
		}
	}
	ix.writeManifest(sw, rawLens)
	for _, sec := range secs {
		sw.Begin(sec.kind)
		sw.Raw(sec.body)
		sw.End()
	}
	return sw.Finish()
}

// linkHash fingerprints a meta document's runtime link table (FNV-64a over
// the (FromLocal, To) pairs).  OpenSnapshot compares it against the
// collection's decomposition, so the file need not store the link table.
func linkHash(md *meta.MetaDocument) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint32) {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(v>>s) & 0xff
			h *= prime64
		}
	}
	for _, cl := range md.OutLinks {
		mix(uint32(cl.FromLocal))
		mix(uint32(cl.To))
	}
	return h
}

// OpenOptions tunes OpenSnapshotWith.
type OpenOptions struct {
	// Mmap maps the file read-only instead of reading it into memory.
	// Platforms without mmap support fall back to a plain read.
	Mmap bool
}

// OpenSnapshot opens a v2 snapshot file memory-mapped against the
// collection it was written for.  The returned index serves queries
// straight from the mapping; call Close when done (a finalizer releases
// the mapping otherwise, once the *Index is unreachable: every evaluation,
// probe and stream holds the Index it runs on, so a hot-swapped-out
// generation stays mapped until the last of them has finished).
func OpenSnapshot(c *xmlgraph.Collection, path string) (*Index, error) {
	return OpenSnapshotWith(c, path, OpenOptions{Mmap: true})
}

// OpenSnapshotWith is OpenSnapshot with explicit options.
func OpenSnapshotWith(c *xmlgraph.Collection, path string, opts OpenOptions) (*Index, error) {
	snap, err := storage.OpenSnapshotFile(path, opts.Mmap)
	if err != nil {
		return nil, wrapSnapshotErr(err)
	}
	ix, err := openSnapshot(c, snap)
	if err != nil {
		snap.Close()
		return nil, err
	}
	return ix, nil
}

// OpenSnapshotBytes opens a v2 snapshot from an in-memory image.
func OpenSnapshotBytes(c *xmlgraph.Collection, data []byte) (*Index, error) {
	snap, err := storage.OpenSnapshotBytes(data)
	if err != nil {
		return nil, wrapSnapshotErr(err)
	}
	ix, err := openSnapshot(c, snap)
	if err != nil {
		snap.Close()
		return nil, err
	}
	return ix, nil
}

// wrapSnapshotErr lifts the storage-level version error into this
// package's ErrSnapshotVersion (keeping the original chained).
func wrapSnapshotErr(err error) error {
	if errors.Is(err, storage.ErrVersion) && !errors.Is(err, ErrSnapshotVersion) {
		return fmt.Errorf("%w (%w)", ErrSnapshotVersion, err)
	}
	return err
}

func openSnapshot(c *xmlgraph.Collection, snap *storage.Snapshot) (*Index, error) {
	if !c.Frozen() {
		return nil, fmt.Errorf("flix: collection must be frozen before OpenSnapshot")
	}
	if snap.NumSections() < 1 || snap.Section(0).Kind != storage.SectionManifest {
		return nil, fmt.Errorf("%w: first section is not the manifest", ErrSnapshotCorrupt)
	}
	d := storage.NewSectionData(snap.Section(0).Data)
	cfg := Config{
		Kind:          ConfigKind(d.Varint()),
		PartitionSize: int(d.Varint()),
		MinTreeDocs:   int(d.Varint()),
		Load:          meta.QueryLoad(d.Varint()),
		Strategy:      d.String(),
	}
	nMetas := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if !cfg.Kind.valid() {
		return nil, fmt.Errorf("%w: unknown configuration kind %d", ErrSnapshotCorrupt, int(cfg.Kind))
	}
	// Each manifest entry takes at least 10 bytes, so this bound rejects a
	// forged count before the arrays below are allocated.
	if nMetas < 0 || nMetas > maxSnapshotMetas || nMetas > d.Remaining()/10+1 {
		return nil, fmt.Errorf("%w: unreasonable meta-document count %d", ErrSnapshotCorrupt, nMetas)
	}
	if snap.NumSections() != nMetas+1 {
		return nil, fmt.Errorf("%w: %d sections for %d meta documents", ErrSnapshotCorrupt, snap.NumSections(), nMetas)
	}
	type fingerprint struct {
		nodes, links int
		hash         uint64
	}
	fps := make([]fingerprint, nMetas)
	for i := range fps {
		fps[i] = fingerprint{nodes: int(d.Uvarint()), links: int(d.Uvarint()), hash: d.U64()}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	// Compressed snapshots append a trailer with the pre-compression size
	// of each section; raw snapshots end right after the fingerprints.
	var secRaw []int64
	if d.Remaining() > 0 {
		if v := d.Uvarint(); v != manifestTrailerV1 {
			return nil, fmt.Errorf("%w: unknown manifest trailer version %d", ErrSnapshotCorrupt, v)
		}
		secRaw = make([]int64, nMetas)
		for i := range secRaw {
			secRaw[i] = int64(d.Uvarint())
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
	}

	set, bs, err := Decompose(c, cfg)
	if err != nil {
		return nil, err
	}
	if len(set.Metas) != nMetas {
		return nil, fmt.Errorf("flix: snapshot has %d meta documents, collection yields %d — wrong collection?",
			nMetas, len(set.Metas))
	}
	ix := newIndex(c, cfg, set, bs)
	ix.snap, ix.secRaw = snap, secRaw
	for i, md := range set.Metas {
		fp := fps[i]
		if fp.nodes != md.Graph.NumNodes() || fp.links != len(md.OutLinks) || fp.hash != linkHash(md) {
			return nil, fmt.Errorf("flix: meta %d: snapshot fingerprint mismatch — wrong collection?", i)
		}
		sec := snap.Section(i + 1)
		// A compressed section must be no larger than the raw size the
		// manifest declares for it — a mismatch means one of the two was
		// tampered with.
		if secRaw != nil && storage.IsCompressedKind(sec.Kind) && secRaw[i] != 0 && secRaw[i] < int64(len(sec.Data)) {
			return nil, fmt.Errorf("%w: meta %d: compressed section (%d bytes) exceeds declared raw size %d",
				ErrSnapshotCorrupt, i, len(sec.Data), secRaw[i])
		}
		open, ok := meta.SectionOpeners[sec.Kind]
		if !ok {
			return nil, fmt.Errorf("%w: meta %d: unknown section kind %d", ErrSnapshotCorrupt, i, sec.Kind)
		}
		idx, err := open(md.Graph, sec.Data)
		if err != nil {
			return nil, fmt.Errorf("flix: meta %d: %w", i, err)
		}
		ix.pis[i] = idx
	}
	ix.buildLinkTables()
	keepDecomposition(c, cfg, set)
	return ix, nil
}

// Close releases the snapshot backing this index, if any.  It must only
// be called once no query is active; indexes built in memory need no
// Close.
func (ix *Index) Close() error {
	if ix.snap == nil {
		return nil
	}
	return ix.snap.Close()
}

// StorageInfo describes how an index is backed.
type StorageInfo struct {
	// Format is "heap" for a built index, "v2" for one served from an open
	// snapshot container.
	Format string
	// Mapped reports whether the backing snapshot is memory-mapped.
	Mapped bool
	// MappedBytes is the size of the mapping (0 when not mapped).
	MappedBytes int64
	// SizeBytes is the on-disk size of the backing snapshot container, or
	// 0 when the index is not snapshot-backed.
	SizeBytes int64
	// Compressed reports whether any section uses a compressed encoding.
	Compressed bool
	// Sections breaks the snapshot down by section kind.
	Sections []SectionStat
}

// SectionStat aggregates the snapshot sections of one kind.
type SectionStat struct {
	// Kind names the section kind ("manifest", "ppo", "ppo-c", ...).
	Kind string
	// Sections counts sections of this kind.
	Sections int
	// Bytes is their total on-disk payload size.
	Bytes int64
	// RawBytes is the total pre-compression size of the compressed
	// sections among them whose raw size the manifest records.
	RawBytes int64
	// Ratio is RawBytes/Bytes for those sections (0 when not applicable).
	Ratio float64
}

// StorageInfo reports how the index is backed; /statsz surfaces it.
func (ix *Index) StorageInfo() StorageInfo {
	if ix.snap == nil {
		return StorageInfo{Format: "heap"}
	}
	si := StorageInfo{Format: "v2"}
	if ix.snap.Mapped() {
		si.Mapped = true
		si.MappedBytes = ix.snap.Size()
	}
	si.SizeBytes = ix.snap.Size()
	byKind := map[string]*SectionStat{}
	var order []string
	for i := 0; i < ix.snap.NumSections(); i++ {
		sec := ix.snap.Section(i)
		name := storage.SectionKindName(sec.Kind)
		st := byKind[name]
		if st == nil {
			st = &SectionStat{Kind: name}
			byKind[name] = st
			order = append(order, name)
		}
		st.Sections++
		st.Bytes += int64(len(sec.Data))
		if storage.IsCompressedKind(sec.Kind) {
			si.Compressed = true
			if i > 0 && ix.secRaw != nil && ix.secRaw[i-1] != 0 {
				st.RawBytes += ix.secRaw[i-1]
			}
		}
	}
	for _, name := range order {
		st := byKind[name]
		if st.RawBytes > 0 && st.Bytes > 0 {
			st.Ratio = float64(st.RawBytes) / float64(st.Bytes)
		}
		si.Sections = append(si.Sections, *st)
	}
	return si
}
