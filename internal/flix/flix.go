// Package flix implements the FliX framework for indexing large,
// heterogeneous collections of interlinked XML documents (Schenkel, EDBT
// 2004 workshops).
//
// The build phase (§4) partitions the collection into meta documents
// (Meta Document Builder), picks the best path-indexing strategy for each
// (Indexing Strategy Selector) and builds the per-meta-document indexes
// (Index Builder).  The query phase (§5) evaluates descendants-or-self path
// expressions with a priority-queue algorithm that consults the local
// indexes and follows the remaining links at run time, streaming results in
// approximately ascending distance order.
package flix

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/meta"
	"repro/internal/pathindex"
	"repro/internal/storage"
	"repro/internal/xmlgraph"
)

// ConfigKind selects one of the predefined framework configurations (§4.3).
type ConfigKind int

const (
	// Naive treats every document as its own meta document.  Useful when
	// documents are large, inter-document links few, and queries rarely
	// cross document boundaries (e.g. the INEX collection).
	Naive ConfigKind = iota
	// MaximalPPO greedily groups documents into maximal tree-shaped
	// partitions indexed with PPO; remaining documents fall back to a
	// graph strategy.  Useful for link-poor collections like DBLP.
	MaximalPPO
	// UnconnectedHOPI partitions the collection into size-bounded groups
	// with few crossing links and indexes each with HOPI — the first two
	// steps of HOPI's divide-and-conquer build.  Useful when most
	// documents contain links.
	UnconnectedHOPI
	// Hybrid combines MaximalPPO on the tree-like regions with
	// UnconnectedHOPI on the densely linked rest — the mixed setting of
	// Figure 1.
	Hybrid
	// Monolithic indexes the whole collection as a single meta document
	// with the strategy named in Config.Strategy ("hopi" by default).
	// It exists to run the paper's comparators (full HOPI, full APEX)
	// through the same machinery.
	Monolithic
	// ElementLevel builds meta documents on the element level (§7 future
	// work): connected elements are grouped into size-bounded partitions
	// regardless of document boundaries, so an oversized document is
	// split and tightly linked documents merge.  Edges crossing a
	// partition — tree edges included — are followed at query run time.
	ElementLevel
)

// String implements fmt.Stringer.
func (k ConfigKind) String() string {
	switch k {
	case Naive:
		return "naive"
	case MaximalPPO:
		return "maximal-ppo"
	case UnconnectedHOPI:
		return "unconnected-hopi"
	case Hybrid:
		return "hybrid"
	case Monolithic:
		return "monolithic"
	case ElementLevel:
		return "element-level"
	default:
		return fmt.Sprintf("ConfigKind(%d)", int(k))
	}
}

// valid reports whether k is one of the configurations above.
func (k ConfigKind) valid() bool { return k >= Naive && k <= ElementLevel }

// Config tunes the build phase.  The zero value is a usable Hybrid-less
// Naive configuration; DefaultConfig returns the recommended Hybrid setup.
type Config struct {
	// Kind selects the meta-document configuration.
	Kind ConfigKind
	// PartitionSize bounds the element count of UnconnectedHOPI/Hybrid
	// partitions.  Default 5000 (the paper's HOPI-5000).
	PartitionSize int
	// MinTreeDocs is the minimum number of documents for a Hybrid tree
	// partition to stay on the PPO side.  Default 2.
	MinTreeDocs int
	// Load hints the Indexing Strategy Selector about the query load.
	Load meta.QueryLoad
	// Strategy optionally forces a per-meta-document strategy by name
	// ("ppo", "hopi", "apex"); infeasible choices and names that are not
	// registered fall back to the selector's heuristic.  Monolithic uses
	// it as the single strategy.
	Strategy string
}

// DefaultConfig returns the recommended configuration: Hybrid partitions of
// at most 5000 elements.
func DefaultConfig() Config {
	return Config{Kind: Hybrid, PartitionSize: 5000, MinTreeDocs: 2}
}

func (c Config) withDefaults() Config {
	if c.PartitionSize <= 0 {
		c.PartitionSize = 5000
	}
	if c.MinTreeDocs <= 0 {
		c.MinTreeDocs = 2
	}
	return c
}

// BuildOptions tunes how the build phase executes, independently of what
// it builds (Config).  The zero value uses all CPUs.
type BuildOptions struct {
	// Parallelism bounds the number of concurrent per-meta-document index
	// builds in the worker pool.  0 means GOMAXPROCS; 1 builds serially.
	// The built index is identical — byte-for-byte under WriteTo — at
	// every parallelism level.
	Parallelism int
}

// Index is a built FliX index over one collection.  It is immutable and
// safe for concurrent queries.
type Index struct {
	coll   *xmlgraph.Collection
	set    *meta.Set
	pis    []pathindex.Index
	cfg    Config
	stats  QueryStats
	bstats BuildStats

	// snap is non-nil when the index is served from an open v2 snapshot
	// (OpenSnapshot*): the pis alias its bytes, so it must stay open for
	// the index's lifetime.  Close releases it.
	snap *storage.Snapshot

	// size memoizes SizeBytes for a heap-built index.
	sizeOnce sync.Once
	size     int64
	sizeErr  error

	// linkTabs[mi] is the per-meta-document link-distance table (nil when
	// the meta document has no runtime-link sources or its index has no
	// accelerated form): the source-side columns of the distance test,
	// decoded once at build/open so the evaluator's link-follow loop —
	// the hottest per-pop work after the probe itself — sweeps dense
	// plain arrays instead of re-extracting packed values every pop.
	linkTabs []pathindex.LinkTable

	// secRaw holds the pre-compression byte size of each snapshot section
	// (parallel to snap's meta sections; 0 = unknown), parsed from the
	// manifest trailer of compressed snapshots.  StorageInfo turns it into
	// per-kind compression ratios.
	secRaw []int64

	// scratch pools evalScratch values for the query hot path.  It is
	// per-Index so that live generation swaps stay safe: each generation
	// drains its own pool.  It is allocated apart from the Index because
	// the runtime keeps every pool in use reachable until the collection
	// cycle after next: a pool embedded here would keep a retired
	// generation — meta documents, indexes, link tables — alive that long,
	// and under hot swap the retired generations of two cycles add up.
	scratch *sync.Pool
}

// newIndex returns an Index over a decomposition, its per-meta-document
// indexes still to be filled in.
func newIndex(c *xmlgraph.Collection, cfg Config, set *meta.Set, bs BuildStats) *Index {
	return &Index{
		coll: c, set: set, cfg: cfg, bstats: bs,
		pis:     make([]pathindex.Index, len(set.Metas)),
		scratch: new(sync.Pool),
	}
}

// Build runs the build phase on a frozen collection with default options
// (all CPUs).
func Build(c *xmlgraph.Collection, cfg Config) (*Index, error) {
	return BuildWithOptions(c, cfg, BuildOptions{})
}

// BuildWithOptions runs the build phase on a frozen collection.
func BuildWithOptions(c *xmlgraph.Collection, cfg Config, opts BuildOptions) (*Index, error) {
	if !c.Frozen() {
		return nil, fmt.Errorf("flix: collection must be frozen before Build")
	}
	cfg = cfg.withDefaults()
	set, bs, err := Decompose(c, cfg)
	if err != nil {
		return nil, err
	}
	ix := newIndex(c, cfg, set, bs)
	// Configurations built around one strategy prefer it unless told
	// otherwise.
	preferred := cfg.Strategy
	if preferred == "" {
		switch cfg.Kind {
		case MaximalPPO:
			preferred = "ppo"
		case UnconnectedHOPI, Monolithic:
			preferred = "hopi"
		}
	}
	if err := ix.buildIndexes(preferred, opts.Parallelism); err != nil {
		return nil, err
	}
	ix.buildLinkTables()
	keepDecomposition(c, cfg, set)
	return ix, nil
}

// buildLinkTables precomputes the per-meta-document link-distance tables.
// Both constructors (heap build, snapshot open) call it once the pis are in
// place.
func (ix *Index) buildLinkTables() {
	ix.linkTabs = make([]pathindex.LinkTable, len(ix.pis))
	for i, md := range ix.set.Metas {
		ix.linkTabs[i] = pathindex.NewLinkTable(ix.pis[i], md.LinkSources)
	}
}

// workerStats is one build worker's private aggregate.  Workers never share
// it, so recording needs no lock; buildIndexes merges the per-worker
// aggregates deterministically (in worker order) once the pool drains.
type workerStats struct {
	wb     WorkerBuild
	sel    time.Duration
	strats map[string]StrategyBuild
}

func (ws *workerStats) record(name string, tm meta.Timing) {
	if ws.strats == nil {
		ws.strats = make(map[string]StrategyBuild)
	}
	sb := ws.strats[name]
	sb.Metas++
	sb.Total += tm.Build
	if tm.Build > sb.Max {
		sb.Max = tm.Build
	}
	ws.strats[name] = sb
	ws.sel += tm.Select
	ws.wb.Metas++
	ws.wb.Busy += tm.Select + tm.Build
}

// buildIndexes constructs the per-meta-document indexes on a worker pool of
// the given width (<= 0 means all CPUs) — meta documents are independent,
// so this is the natural parallelism of the build phase.  Output is
// deterministic regardless of the pool width: pis[i] is keyed by the stable
// meta-document ordering, and the per-worker statistics are merged in worker
// order after the pool drains.
func (ix *Index) buildIndexes(preferred string, parallelism int) error {
	metas := ix.set.Metas
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	ix.bstats.Parallelism = parallelism
	t0 := time.Now()
	defer func() { ix.bstats.IndexBuild = time.Since(t0) }()
	workers := max(1, min(parallelism, len(metas)))
	perWorker := make([]workerStats, workers)
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		firstE  error
		failed  atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &perWorker[w]
			for {
				i := int(next.Add(1)) - 1
				if i >= len(metas) || failed.Load() {
					return
				}
				idx, tm, err := meta.BuildIndexTimed(metas[i], ix.cfg.Load, preferred)
				if err != nil {
					errOnce.Do(func() { firstE = err })
					failed.Store(true)
					return
				}
				ix.pis[i] = idx
				ws.record(idx.Name(), tm)
			}
		}(w)
	}
	wg.Wait()
	if firstE != nil {
		return firstE
	}
	ix.bstats.Strategies = make(map[string]StrategyBuild)
	ix.bstats.Workers = make([]WorkerBuild, 0, workers)
	for w := range perWorker {
		ws := &perWorker[w]
		ix.bstats.Select += ws.sel
		for name, sb := range ws.strats {
			agg := ix.bstats.Strategies[name]
			agg.Metas += sb.Metas
			agg.Total += sb.Total
			if sb.Max > agg.Max {
				agg.Max = sb.Max
			}
			ix.bstats.Strategies[name] = agg
		}
		ix.bstats.Workers = append(ix.bstats.Workers, ws.wb)
	}
	return nil
}

// Collection returns the indexed collection.
func (ix *Index) Collection() *xmlgraph.Collection { return ix.coll }

// Config returns the configuration the index was built with.
func (ix *Index) Config() Config { return ix.cfg }

// NumMetaDocuments returns the number of meta documents.
func (ix *Index) NumMetaDocuments() int { return len(ix.set.Metas) }

// RuntimeLinks returns the number of links followed at query time rather
// than being represented in an index.
func (ix *Index) RuntimeLinks() int {
	n := 0
	for _, md := range ix.set.Metas {
		n += len(md.OutLinks)
	}
	return n
}

// StrategyCounts reports how many meta documents use each strategy.
func (ix *Index) StrategyCounts() map[string]int {
	out := make(map[string]int)
	for _, p := range ix.pis {
		out[p.Name()]++
	}
	return out
}

// Describe returns a one-line human-readable summary.
func (ix *Index) Describe() string {
	counts := ix.StrategyCounts()
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("%s: %d meta documents (", ix.cfg.Kind, len(ix.set.Metas))
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s×%d", n, counts[n])
	}
	return s + fmt.Sprintf("), %d runtime links", ix.RuntimeLinks())
}
