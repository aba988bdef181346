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

// WriteTo emits the canonical compact stream: every meta-document index
// plus the runtime link tables (the data the paper keeps in database
// tables).  Its byte count is the "index size" the experiments report
// (Table 1) and its bytes are the byte-identity form the determinism tests
// compare; nothing reads it back — persistence is WriteSnapshotV2With.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	var total int64
	sw := storage.NewWriter(w)
	sw.Header("flix")
	sw.Uvarint(1) // stream version, fixed: the stream is measured, never reopened
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

// SizeBytes measures the index: the container size for a snapshot-backed
// index (compressed or not), or the length of the canonical compact stream
// for a heap-built one — Table 1's measure.  An Index is immutable, so the
// stream is encoded once and the length kept.
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
