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

// ErrSnapshotVersion reports a snapshot written by a newer container
// version than this binary understands.  The live-reindexing generation
// store depends on the check to skip (not crash on) snapshots a newer binary
// left behind.
var ErrSnapshotVersion = errors.New("flix: snapshot format version not supported")

// maxSnapshotMetas bounds the meta-document count declared in a snapshot
// manifest, so a corrupt file fails with an error instead of an
// out-of-memory allocation.
const maxSnapshotMetas = 1 << 26

// streamEncoder is a meta-document index that writes its part of the
// canonical stream: the heap index types, which the raw-opened views share.
// The view over a compressed PPO section is the one index that does not.
type streamEncoder interface {
	EncodeStream(sw *storage.SnapshotWriter)
}

// WriteTo emits the canonical compact stream: every meta-document index
// plus the runtime link tables (the data the paper keeps in database
// tables).  Its byte count is the "index size" the experiments report
// (Table 1) and its bytes are the byte-identity form the determinism tests
// compare; nothing reads it back — persistence is WriteSnapshotV2With.  An
// index served from compressed PPO sections cannot write it and returns an
// error, having written nothing.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	encs := make([]streamEncoder, len(ix.pis))
	for i, p := range ix.pis {
		enc, ok := p.(streamEncoder)
		if !ok {
			return 0, fmt.Errorf("flix: meta document %d is served from a compressed %s section, which does not write the canonical stream", i, p.Name())
		}
		encs[i] = enc
	}
	return storage.WriteStream(w, func(sw *storage.SnapshotWriter) {
		sw.StreamHeader("flix")
		sw.Uvarint(1) // stream version, fixed: the stream is measured, never reopened
		sw.Varint(int64(ix.cfg.Kind))
		sw.Varint(int64(ix.cfg.PartitionSize))
		sw.Varint(int64(ix.cfg.MinTreeDocs))
		sw.Varint(int64(ix.cfg.Load))
		sw.String(ix.cfg.Strategy)
		sw.Uvarint(uint64(len(encs)))
		for i, enc := range encs {
			enc.EncodeStream(sw)
			// Runtime link table of this meta document.
			md := ix.set.Metas[i]
			sw.Uvarint(uint64(len(md.OutLinks)))
			for _, cl := range md.OutLinks {
				sw.Varint(int64(cl.FromLocal))
				sw.Varint(int64(cl.To))
			}
		}
	})
}

// SizeBytes measures the index, and which number a caller gets depends on
// how the index was made.  A heap-built index reports the length of the
// canonical compact stream — Table 1's measure; an Index is immutable, so
// the stream is encoded once and the length kept.  A snapshot-backed index,
// compressed or not, reports the size of the container that backs it, the
// number StorageInfo.SizeBytes holds; the two are not comparable.
func (ix *Index) SizeBytes() (int64, error) {
	if ix.snap != nil {
		return ix.snap.Size(), nil
	}
	ix.sizeOnce.Do(func() { ix.size, ix.sizeErr = ix.WriteTo(io.Discard) })
	return ix.size, ix.sizeErr
}

// decomposition is what Decompose keeps in the collection's derived slot: a
// Set under the configuration it was computed for, reduced to the fields that
// determine it (decompositionKey).
type decomposition struct {
	key Config
	set *meta.Set
}

// decompositionKey reduces cfg to the fields decompose reads.  Strategy and
// Load choose indexes, not partitions, and are not part of it.
func decompositionKey(cfg Config) Config {
	return Config{Kind: cfg.Kind, PartitionSize: cfg.PartitionSize, MinTreeDocs: cfg.MinTreeDocs}
}

// Decompose returns the meta-document decomposition a configuration
// describes — the Meta Document Builder of §4.1.  It is the only place a
// ConfigKind turns into meta documents: the build phase and OpenSnapshot call
// it, and opening relies on it being deterministic — the collection plus
// Kind, PartitionSize and MinTreeDocs fully determine the meta documents
// (Strategy and Load choose indexes, not partitions), so only the
// per-meta-document indexes are persisted.
//
// Because it is a pure function of a frozen collection, its value is kept
// with the collection (Collection.UpdateDerived) and every generation built
// or opened over that collection under the same three fields shares one
// immutable *meta.Set: the first call computes it, callers arriving
// meanwhile wait and share it, later ones find it.  One decomposition is
// kept per collection and it goes when the collection goes.  A configuration
// other than the kept one is computed for the caller alone; it replaces the
// kept one only once a build or open has succeeded with it (keepDecomposition),
// so a failing build or open never displaces what the serving generation was
// made from.
//
// The returned statistics carry the two phases timed, Partition and
// MetaBuild, as spent by this call: zero when the Set was found.
func Decompose(c *xmlgraph.Collection, cfg Config) (*meta.Set, BuildStats, error) {
	var bs BuildStats
	if !cfg.Kind.valid() {
		return nil, bs, fmt.Errorf("flix: unknown configuration kind %v", cfg.Kind)
	}
	key := decompositionKey(cfg)
	var set *meta.Set
	c.UpdateDerived(func(cur any) any {
		if d, ok := cur.(*decomposition); ok {
			if d.key == key {
				set = d.set
			}
			return cur
		}
		set, bs = decompose(c, cfg)
		return &decomposition{key, set}
	})
	if set == nil {
		// Another configuration is kept: compute beside it, outside the
		// lock, so that opens of the kept one do not wait for this.
		set, bs = decompose(c, cfg)
	}
	return set, bs, nil
}

// keepDecomposition makes set, which Decompose returned for cfg, the
// decomposition kept with the collection.  A build or open calls it once it
// has succeeded.
func keepDecomposition(c *xmlgraph.Collection, cfg Config, set *meta.Set) {
	key := decompositionKey(cfg)
	c.UpdateDerived(func(cur any) any {
		if d, ok := cur.(*decomposition); ok && d.key == key {
			return cur
		}
		return &decomposition{key, set}
	})
}

// decompose computes what Decompose returns; cfg.Kind is valid.
func decompose(c *xmlgraph.Collection, cfg Config) (*meta.Set, BuildStats) {
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
	}
	bs.Partition = time.Since(t0)
	var set *meta.Set
	if r != nil {
		set = meta.Build(c, r)
	} else {
		set = meta.BuildElements(c, assign, parts)
	}
	bs.MetaBuild = time.Since(t0) - bs.Partition
	return set, bs
}
