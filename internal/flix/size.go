package flix

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/xmlgraph"
)

// SnapshotVersion is the current on-disk format version, written right
// after the "flix" header.  Load refuses snapshots from a newer version
// with ErrSnapshotVersion instead of misreading them; the live-reindexing
// generation store depends on this check to skip (not crash on) snapshots
// a newer binary left behind.
const SnapshotVersion = 1

// ErrSnapshotVersion reports a snapshot written by a newer format version
// than this binary understands.
var ErrSnapshotVersion = errors.New("flix: snapshot format version not supported")

// maxSnapshotMetas bounds the meta-document count declared in a snapshot
// header, so a corrupt stream fails with an error instead of an
// out-of-memory allocation.
const maxSnapshotMetas = 1 << 26

// WriteTo serializes every meta-document index plus the runtime link tables
// (the data a FliX deployment must persist); the byte count is the "index
// size" the experiments report (Table 1).  Load restores the index against
// the same collection.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	var total int64
	sw := storage.NewWriter(w)
	sw.Header("flix")
	sw.Uvarint(SnapshotVersion)
	sw.Varint(int64(ix.cfg.Kind))
	sw.Varint(int64(ix.cfg.PartitionSize))
	sw.Varint(int64(ix.cfg.MinTreeDocs))
	sw.Varint(int64(ix.cfg.Load))
	sw.String(ix.cfg.Strategy)
	sw.Uvarint(uint64(len(ix.pis)))
	n, err := sw.Flush()
	if err != nil {
		return n, err
	}
	total += n
	for i, p := range ix.pis {
		n, err := p.WriteTo(w)
		total += n
		if err != nil {
			return total, err
		}
		// Runtime link table of this meta document.
		lw := storage.NewWriter(w)
		md := ix.set.Metas[i]
		lw.Uvarint(uint64(len(md.OutLinks)))
		for _, cl := range md.OutLinks {
			lw.Int32(cl.FromLocal)
			lw.Int32(int32(cl.To))
		}
		n, err = lw.Flush()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// SizeBytes measures the on-disk size of the index in its persisted form:
// the actual container size for a snapshot-backed index (v2, compressed or
// not), or the serialized v1 stream length for a heap-built one.
func (ix *Index) SizeBytes() (int64, error) {
	if ix.snap != nil {
		return ix.snap.Size(), nil
	}
	return ix.WriteTo(io.Discard)
}

// Decompose computes the meta-document decomposition a configuration
// describes — the Meta Document Builder of §4.1 — and stamps the two phases
// it times, Partition and MetaBuild, into the returned statistics.  It is the
// only place a ConfigKind turns into meta documents: the build phase and both
// snapshot loaders (the v1 stream and the v2 mmap container) call it, and the
// loaders rely on it being deterministic — the collection plus the stored
// Config fully determine the meta documents, so only the per-meta-document
// indexes are persisted.
func Decompose(c *xmlgraph.Collection, cfg Config) (*meta.Set, BuildStats, error) {
	var (
		bs     BuildStats
		r      *partition.Result // document-level kinds
		assign []int32           // ElementLevel
		parts  int
	)
	t0 := time.Now()
	switch cfg.Kind {
	case Naive:
		r = partition.Singleton(c)
	case MaximalPPO:
		r = partition.TreePartitions(c)
	case UnconnectedHOPI:
		r = partition.SizeBounded(c, cfg.PartitionSize)
	case Hybrid:
		r = partition.Hybrid(c, cfg.PartitionSize, cfg.MinTreeDocs)
	case Monolithic:
		r = partition.Whole(c)
	case ElementLevel:
		assign, parts = partition.ElementLevel(c, cfg.PartitionSize)
	default:
		return nil, bs, fmt.Errorf("flix: unknown configuration kind %v", cfg.Kind)
	}
	bs.Partition = time.Since(t0)
	var set *meta.Set
	if r != nil {
		set = meta.Build(c, r)
	} else {
		set = meta.BuildElements(c, assign, parts)
	}
	bs.MetaBuild = time.Since(t0) - bs.Partition
	return set, bs, nil
}

// Load restores an index written by WriteTo.  The collection must be the
// one the index was built over: the meta-document decomposition is
// recomputed deterministically from the stored configuration and the
// per-meta-document indexes are deserialized instead of rebuilt.  The
// stored link tables are checked against the recomputed decomposition, so
// a mismatched collection is detected rather than silently mis-queried.
func Load(c *xmlgraph.Collection, r io.Reader) (*Index, error) {
	if !c.Frozen() {
		return nil, fmt.Errorf("flix: collection must be frozen before Load")
	}
	sr := storage.NewReader(r)
	if err := sr.Header("flix"); err != nil {
		return nil, err
	}
	if v := sr.Uvarint(); v > SnapshotVersion {
		if err := sr.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: stream is v%d, this binary reads <= v%d", ErrSnapshotVersion, v, SnapshotVersion)
	}
	cfg := Config{
		Kind:          ConfigKind(sr.Varint()),
		PartitionSize: int(sr.Varint()),
		MinTreeDocs:   int(sr.Varint()),
		Load:          meta.QueryLoad(sr.Varint()),
		Strategy:      sr.String(),
	}
	nMetas := int(sr.Uvarint())
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if nMetas < 0 || nMetas > maxSnapshotMetas {
		return nil, fmt.Errorf("flix: unreasonable meta-document count %d in snapshot", nMetas)
	}

	set, bs, err := Decompose(c, cfg)
	if err != nil {
		return nil, err
	}
	if len(set.Metas) != nMetas {
		return nil, fmt.Errorf("flix: stream has %d meta documents, collection yields %d — wrong collection?",
			nMetas, len(set.Metas))
	}
	ix := newIndex(c, cfg, set, bs)
	ix.format = "v1"
	for i, md := range set.Metas {
		kind, err := sr.ReadHeader()
		if err != nil {
			return nil, fmt.Errorf("flix: meta %d: %w", i, err)
		}
		read, ok := meta.Readers[kind]
		if !ok {
			return nil, fmt.Errorf("flix: meta %d: unknown index kind %q", i, kind)
		}
		idx, err := read(md.Graph, sr)
		if err != nil {
			return nil, fmt.Errorf("flix: meta %d: %w", i, err)
		}
		ix.pis[i] = idx
		// Verify the stored link table against the recomputed one.
		nl := int(sr.Uvarint())
		if err := sr.Err(); err != nil {
			return nil, err
		}
		if nl != len(md.OutLinks) {
			return nil, fmt.Errorf("flix: meta %d: stream has %d runtime links, collection yields %d",
				i, nl, len(md.OutLinks))
		}
		for j := 0; j < nl; j++ {
			from := sr.Int32()
			to := xmlgraph.NodeID(sr.Int32())
			if md.OutLinks[j].FromLocal != from || md.OutLinks[j].To != to {
				return nil, fmt.Errorf("flix: meta %d: runtime link %d mismatch", i, j)
			}
		}
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	ix.buildLinkTables()
	return ix, nil
}
