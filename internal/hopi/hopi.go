// Package hopi implements the HOPI connection index (Schenkel, Theobald,
// Weikum, EDBT 2004), a distance-aware 2-hop cover (Cohen et al., SODA 2002)
// over an arbitrary directed graph.
//
// Every node v carries two labels: Lin(v), a set of (hub, d) pairs with a
// shortest path hub -> v of length d, and Lout(v), pairs with a shortest
// path v -> hub.  A node x reaches y iff Lout(x) and Lin(y) share a hub, and
// dist(x, y) = min over common hubs h of dist(x, h) + dist(h, y).
//
// Construction uses pruned landmark labeling: hubs are processed in
// descending (in+1)*(out+1) degree order (a stand-in for Cohen's
// densest-subgraph benefit heuristic); each hub performs a forward and a
// backward BFS that prunes every node whose distance is already covered by
// the labels built so far.  The result is an exact, minimal-per-order 2-hop
// cover with distances.
//
// BuildPartitioned mirrors the paper's divide-and-conquer construction
// (§2.2): the graph is divided into partitions, the nodes incident to
// partition-crossing edges ("border" nodes) are labeled first over the whole
// graph, and the remaining nodes are labeled with BFS runs confined to their
// own partition.  Every cross-partition path passes through a border hub, so
// the cover stays exact while the per-node work shrinks to partition size.
// It is an ablation: `hopi.DCStrategy` registers it as "hopi-dc" for the
// tests and benchmarks, and it is not in meta.Registry.
// `hopi.BuildPartitionedParallel` labels the border hubs serially, since
// pruning depends on the global hub order, and the interior of each
// partition in parallel; the labels equal the serial build's
// (`TestPropertyParallelBuildDeterministic`).
//
// HOPI has one probe surface, the heap `hopi.Index`.  Its raw `hopi` sections store
// labels and postings as varint-delta runs, and its `hopi-c` sections pack
// the hub delta with a 2-bit saturating distance and bit-pack the offset
// tables; both decode at open into the Index a build produces, validating
// every element (IDs and distances in range, hubs and postings strictly
// ascending, no trailing byte) so no forged distance can overflow a probe's
// sum (`TestReadBodyCorrupt`, `TestCompressedSectionCorrupt`,
// `FuzzOpenSection`).  An opened Index re-encodes like a build
// (`TestHOPIReopenPersistsLikeBuild`).
package hopi

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/csr"
	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/storage"
)

// infinity is larger than any real distance (paths have < 2^31 edges).
const infinity int32 = math.MaxInt32

// entry is one label element: a hub and the shortest-path distance between
// the labeled node and the hub.
type entry struct {
	hub  int32
	dist int32
}

// Index is a distance-aware 2-hop label index: built by Build and its
// variants, or decoded from a snapshot section by OpenSection and
// OpenCompressedSection into exactly the arrays the build held.
type Index struct {
	g *lgraph.LGraph

	// Rows v of in and out are Lin(v) and Lout(v), sorted by hub ID.
	in, out csr.Rows[entry]

	// postings for enumeration queries, built by finish: row h of hubIn
	// lists the (node, dist) pairs with h in Lin(node) — the nodes a query
	// can reach *through* h; hubOut symmetrically for Lout.  Sorted by
	// (dist, node) for the k-way streaming merge.
	hubIn, hubOut csr.Rows[entry]

	// tagIn/tagOut cache tag-filtered copies of the postings, built
	// lazily per queried tag: enumerating a//b then only touches
	// b-postings instead of filtering the full stream per query.
	mu     sync.Mutex
	tagIn  map[lgraph.Tag]csr.Rows[entry]
	tagOut map[lgraph.Tag]csr.Rows[entry]

	// merge pools mergeScratch values so steady-state enumeration probes
	// allocate nothing — the heap backing array and the epoch-stamped seen
	// table are reused across queries.
	merge sync.Pool
}

// mergeScratch is the reusable state of one eachVia k-way merge: the heap's
// backing array and a duplicate table stamped with a per-use tick, so
// clearing it between probes is bumping the tick rather than wiping memory.
type mergeScratch struct {
	h    mergeHeap
	seen []int64
	tick int64
}

var _ pathindex.Index = (*Index)(nil)

// Strategy is the registry entry for whole-graph HOPI.
var Strategy = pathindex.Strategy{
	Name:  "hopi",
	Build: func(g *lgraph.LGraph) (pathindex.Index, error) { return Build(g), nil },
}

// Build constructs the index over the whole graph.
func Build(g *lgraph.LGraph) *Index {
	l := newLabels(g)
	b := newBuilder(l)
	for _, v := range hubOrder(g) {
		b.label(v, nil)
	}
	return l.finish()
}

// BuildPartitioned constructs the index with the divide-and-conquer scheme:
// part[v] gives the partition of node v.  Border nodes (endpoints of
// partition-crossing edges) are labeled over the whole graph first; all other
// nodes are labeled within their partition only.
func BuildPartitioned(g *lgraph.LGraph, part []int32) *Index {
	return BuildPartitionedParallel(g, part, 1)
}

// BuildPartitionedParallel is BuildPartitioned with the per-partition
// labeling step running on up to parallelism workers (<= 0 means all CPUs).
//
// Phase 1 (border hubs) stays sequential: each border BFS prunes against
// the labels of every earlier hub over the whole graph, so its outcome
// depends on the processing order.  Phase 2 is parallel across partitions:
// a partition-confined BFS reads and writes only labels of its own
// partition's nodes — border labels are complete and read-only by then —
// so partitions are independent, and processing each partition's interior
// hubs in global hub order makes the result identical to the serial build
// at every parallelism level.
func BuildPartitionedParallel(g *lgraph.LGraph, part []int32, parallelism int) *Index {
	l := newLabels(g)
	b := newBuilder(l)
	border := make([]bool, g.NumNodes())
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		for _, v := range g.Succs(u) {
			if part[u] != part[v] {
				border[u] = true
				border[v] = true
			}
		}
	}
	order := hubOrder(g)
	// Phase 1: border hubs, unrestricted BFS.
	for _, v := range order {
		if border[v] {
			b.label(v, nil)
		}
	}
	// Phase 2: interior hubs, BFS confined to the hub's partition.
	// Group them by partition, preserving hub order within each group.
	groupOf := make(map[int32]int)
	var groups [][]int32
	for _, v := range order {
		if border[v] {
			continue
		}
		gi, ok := groupOf[part[v]]
		if !ok {
			gi = len(groups)
			groupOf[part[v]] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], v)
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(parallelism, len(groups)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wb := newBuilder(l)
			for {
				gi := int(next.Add(1)) - 1
				if gi >= len(groups) {
					return
				}
				p := part[groups[gi][0]]
				within := func(u int32) bool { return part[u] == p }
				for _, v := range groups[gi] {
					wb.label(v, within)
				}
			}
		}()
	}
	wg.Wait()
	return l.finish()
}

// AssignPartitions computes a node-level partitioning for BuildPartitioned:
// breadth-first regions over the undirected graph, capped at maxNodes
// elements each — the first step of HOPI's divide-and-conquer build
// ("partitions of the XML graph are built such that each partition does not
// exceed a configurable size and the number of partition-crossing edges is
// small").
func AssignPartitions(g *lgraph.LGraph, maxNodes int) []int32 {
	if maxNodes <= 0 {
		maxNodes = 1 << 30
	}
	n := g.NumNodes()
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	var queue []int32
	cur := int32(0)
	size := 0
	take := func(v int32) {
		assign[v] = cur
		size++
		queue = append(queue, v)
	}
	for seed := int32(0); seed < int32(n); seed++ {
		if assign[seed] != -1 {
			continue
		}
		if size >= maxNodes {
			cur++
			size = 0
			queue = queue[:0]
		}
		take(seed)
		for len(queue) > 0 && size < maxNodes {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Succs(v) {
				if assign[w] == -1 && size < maxNodes {
					take(w)
				}
			}
			for _, w := range g.Preds(v) {
				if assign[w] == -1 && size < maxNodes {
					take(w)
				}
			}
		}
	}
	return assign
}

// DCStrategy returns a strategy for the divide-and-conquer build with the
// given partition cap, named "hopi-dc".  The resulting index answers exactly
// like Build's, but construction confines most BFS runs to one partition.  It
// is an ablation (DESIGN.md §4.1), not in meta.Registry: the tests and
// benchmarks that compare it register it.
func DCStrategy(maxNodes int) pathindex.Strategy {
	return pathindex.Strategy{
		Name: "hopi-dc",
		Build: func(g *lgraph.LGraph) (pathindex.Index, error) {
			return BuildPartitioned(g, AssignPartitions(g, maxNodes)), nil
		},
	}
}

// BuildNaive constructs the trivial 2-hop cover that materializes the full
// transitive closure into Lout: Lout(u) = all nodes reachable from u with
// their distances, Lin(v) = {(v, 0)}.  It exists as the ablation baseline
// for the greedy cover (DESIGN.md §4.1) and as a correctness cross-check.
func BuildNaive(g *lgraph.LGraph) *Index {
	l := newLabels(g)
	n := int32(g.NumNodes())
	for v := int32(0); v < n; v++ {
		l.in[v] = []entry{{hub: v, dist: 0}}
	}
	for u := int32(0); u < n; u++ {
		dist := g.BFSDistances(u, false)
		for v := int32(0); v < n; v++ {
			if dist[v] >= 0 {
				l.out[u] = append(l.out[u], entry{hub: v, dist: dist[v]})
			}
		}
	}
	return l.finish()
}

// labels are the labels of a build while it grows them: the pruned BFS
// runs insert into them, and finish turns them into an Index.
type labels struct {
	g       *lgraph.LGraph
	in, out [][]entry
}

func newLabels(g *lgraph.LGraph) *labels {
	n := g.NumNodes()
	return &labels{g: g, in: make([][]entry, n), out: make([][]entry, n)}
}

// hubOrder returns the nodes in descending (in+1)*(out+1) order, ties by ID.
func hubOrder(g *lgraph.LGraph) []int32 {
	n := g.NumNodes()
	order := make([]int32, n)
	score := make([]int64, n)
	for i := 0; i < n; i++ {
		order[i] = int32(i)
		score[i] = int64(g.InDegree(int32(i))+1) * int64(g.OutDegree(int32(i))+1)
	}
	sort.Slice(order, func(a, b int) bool {
		if score[order[a]] != score[order[b]] {
			return score[order[a]] > score[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// builder holds the scratch state for pruned BFS runs.
type builder struct {
	l     *labels
	dist  []int32 // BFS distances, reset between runs via touched
	queue []int32
}

func newBuilder(l *labels) *builder {
	d := make([]int32, l.g.NumNodes())
	for i := range d {
		d[i] = -1
	}
	return &builder{l: l, dist: d}
}

// label runs the pruned forward and backward BFS for hub v.  When within is
// non-nil, the BFS only visits nodes with within(u) == true.
func (b *builder) label(v int32, within func(int32) bool) {
	b.prunedBFS(v, false, within)
	b.prunedBFS(v, true, within)
}

func (b *builder) prunedBFS(v int32, reverse bool, within func(int32) bool) {
	g := b.l.g
	b.queue = b.queue[:0]
	b.queue = append(b.queue, v)
	b.dist[v] = 0
	touched := []int32{v}
	for head := 0; head < len(b.queue); head++ {
		u := b.queue[head]
		d := b.dist[u]
		// Prune when the existing labels already certify dist <= d.
		var covered int32
		if reverse {
			covered = labelDist(b.l.out[u], b.l.in[v])
		} else {
			covered = labelDist(b.l.out[v], b.l.in[u])
		}
		if covered <= d {
			continue
		}
		if reverse {
			b.l.out[u] = insertEntry(b.l.out[u], entry{hub: v, dist: d})
		} else {
			b.l.in[u] = insertEntry(b.l.in[u], entry{hub: v, dist: d})
		}
		next := g.Succs(u)
		if reverse {
			next = g.Preds(u)
		}
		for _, w := range next {
			if b.dist[w] >= 0 {
				continue
			}
			if within != nil && !within(w) {
				continue
			}
			b.dist[w] = d + 1
			b.queue = append(b.queue, w)
			touched = append(touched, w)
		}
	}
	for _, u := range touched {
		b.dist[u] = -1
	}
}

// insertEntry inserts e into the hub-sorted label slice.
func insertEntry(label []entry, e entry) []entry {
	i := sort.Search(len(label), func(i int) bool { return label[i].hub >= e.hub })
	label = append(label, entry{})
	copy(label[i+1:], label[i:])
	label[i] = e
	return label
}

// labelDist returns the distance the labels Lout(x) = lo and Lin(y) = li
// certify from x to y, or infinity.  Both are sorted by hub, so a merge
// suffices.
func labelDist(lo, li []entry) int32 {
	best := infinity
	i, j := 0, 0
	for i < len(lo) && j < len(li) {
		switch {
		case lo[i].hub < li[j].hub:
			i++
		case lo[i].hub > li[j].hub:
			j++
		default:
			if s := lo[i].dist + li[j].dist; s < best {
				best = s
			}
			i++
			j++
		}
	}
	return best
}

// finish lays the labels out as an Index's rows and builds the per-hub
// postings used by the enumeration queries.  Postings are sorted by (dist,
// node) so that enumeration can stream them through a k-way merge in
// globally ascending distance order.
func (l *labels) finish() *Index {
	n := int32(len(l.in))
	idx := &Index{g: l.g, in: flatten(l.in), out: flatten(l.out)}
	postings := func(labels csr.Rows[entry]) csr.Rows[entry] {
		p := csr.Group(int(n), func(add func(int32, entry)) {
			for v := int32(0); v < n; v++ {
				for _, e := range labels.Row(v) {
					add(e.hub, entry{hub: v, dist: e.dist})
				}
			}
		})
		for h := int32(0); h < n; h++ {
			slices.SortFunc(p.Row(h), func(a, b entry) int {
				return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.hub, b.hub))
			})
		}
		return p
	}
	idx.hubIn, idx.hubOut = postings(idx.in), postings(idx.out)
	return idx
}

// flatten copies growable rows into one table.
func flatten(rows [][]entry) csr.Rows[entry] {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	out := csr.Rows[entry]{Off: make([]uint32, 1, len(rows)+1), Data: make([]entry, 0, total)}
	for _, r := range rows {
		out.Append(r...)
	}
	return out
}

// Name implements pathindex.Index.
func (idx *Index) Name() string { return "hopi" }

// NumNodes implements pathindex.Index.
func (idx *Index) NumNodes() int { return idx.g.NumNodes() }

// Reachable implements pathindex.Index.
func (idx *Index) Reachable(x, y int32) bool {
	return labelDist(idx.out.Row(x), idx.in.Row(y)) < infinity
}

// Distance implements pathindex.Index.
func (idx *Index) Distance(x, y int32) (int32, bool) {
	d := labelDist(idx.out.Row(x), idx.in.Row(y))
	if d == infinity {
		return 0, false
	}
	return d, true
}

// LabelEntries returns the total number of label entries (the paper's
// measure of HOPI index size).
func (idx *Index) LabelEntries() int { return len(idx.in.Data) + len(idx.out.Data) }

// EachReachable implements pathindex.Index: it merges the postings of every
// hub in Lout(x), keeping the minimum distance per node, then emits in
// ascending (distance, node) order.
func (idx *Index) EachReachable(x int32, fn pathindex.Visit) {
	idx.eachVia(idx.out.Row(x), idx.hubIn, fn)
}

// EachReachableByTag implements pathindex.Index.
func (idx *Index) EachReachableByTag(x int32, tag lgraph.Tag, fn pathindex.Visit) {
	if tag == lgraph.NoTag {
		return
	}
	idx.eachVia(idx.out.Row(x), idx.taggedPostings(tag, false), fn)
}

// EachReaching implements pathindex.Index.
func (idx *Index) EachReaching(x int32, fn pathindex.Visit) {
	idx.eachVia(idx.in.Row(x), idx.hubOut, fn)
}

// EachReachingByTag implements pathindex.Index.
func (idx *Index) EachReachingByTag(x int32, tag lgraph.Tag, fn pathindex.Visit) {
	if tag == lgraph.NoTag {
		return
	}
	idx.eachVia(idx.in.Row(x), idx.taggedPostings(tag, true), fn)
}

// taggedPostings returns the postings restricted to one tag, building and
// caching them on first use.  Safe for concurrent queries.
func (idx *Index) taggedPostings(tag lgraph.Tag, reverse bool) csr.Rows[entry] {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	cache := &idx.tagIn
	src := idx.hubIn
	if reverse {
		cache = &idx.tagOut
		src = idx.hubOut
	}
	if *cache == nil {
		*cache = make(map[lgraph.Tag]csr.Rows[entry])
	}
	if p, ok := (*cache)[tag]; ok {
		return p
	}
	filtered := csr.Group(src.Len(), func(add func(int32, entry)) {
		for h := int32(0); h < int32(src.Len()); h++ {
			for _, e := range src.Row(h) {
				if idx.g.Tag(e.hub) == tag {
					add(h, e)
				}
			}
		}
	})
	(*cache)[tag] = filtered
	return filtered
}

// eachVia streams the union of the postings of every hub in label, in
// ascending (distance, node) order, via a k-way merge.  Each posting stream
// is sorted by distance, so the first time a node surfaces in the merged
// order carries its minimal distance; later surfacings are duplicates and
// are skipped.  The merge makes enumeration incremental: delivering the
// first k results costs O((|label| + k·dup) log |label|) rather than a full
// materialization — the property behind FliX's streaming evaluation.
func (idx *Index) eachVia(label []entry, postings csr.Rows[entry], fn pathindex.Visit) {
	ms, _ := idx.merge.Get().(*mergeScratch)
	if ms == nil {
		ms = &mergeScratch{seen: make([]int64, idx.g.NumNodes())}
	}
	ms.tick++
	tick := ms.tick
	h := ms.h[:0]
	for _, l := range label {
		p := postings.Row(l.hub)
		if len(p) == 0 {
			continue
		}
		h = append(h, mergeCursor{
			stream: p,
			base:   l.dist,
			dist:   l.dist + p[0].dist,
			node:   p[0].hub,
		})
	}
	heapInit(h)
	for len(h) > 0 {
		cur := &h[0]
		node, dist := cur.node, cur.dist
		// Advance the top cursor.
		cur.pos++
		if cur.pos < len(cur.stream) {
			cur.dist = cur.base + cur.stream[cur.pos].dist
			cur.node = cur.stream[cur.pos].hub
			heapFix(h, 0)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			if len(h) > 0 {
				heapFix(h, 0)
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
	idx.merge.Put(ms)
}

// mergeCursor is one posting stream position in the k-way merge.
type mergeCursor struct {
	stream []entry
	pos    int
	base   int32 // label distance added to every posting distance
	dist   int32 // current combined distance (cached key)
	node   int32 // current node (cached key)
}

// mergeHeap is a hand-rolled binary min-heap over (dist, node); it avoids
// container/heap's interface indirection on this hot path.
type mergeHeap []mergeCursor

func (h mergeHeap) less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}

func heapInit(h mergeHeap) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		heapFix(h, i)
	}
}

func heapFix(h mergeHeap, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// EncodeStream writes the index's part of the canonical compact stream —
// both label sets, without the derived per-hub postings.  It is Table 1's
// size measure and the byte-identity form the determinism tests compare;
// nothing reads it back.
func (idx *Index) EncodeStream(sw *storage.SnapshotWriter) {
	sw.StreamHeader("hopi")
	sw.Uvarint(uint64(idx.in.Len()))
	writeLabels := func(labels csr.Rows[entry]) {
		for v := range int32(labels.Len()) {
			l := labels.Row(v)
			sw.Uvarint(uint64(len(l)))
			prev := int32(0)
			for _, e := range l {
				sw.Varint(int64(e.hub - prev))
				prev = e.hub
				sw.Varint(int64(e.dist))
			}
		}
	}
	writeLabels(idx.in)
	writeLabels(idx.out)
}
