package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// EventKind classifies one trace event.
type EventKind uint8

const (
	// EvPop: the evaluator popped a frontier element off the priority
	// queue; Dist is the distance bound at that point (no later result
	// can be closer).
	EvPop EventKind = iota
	// EvEntry: a popped element was admitted as a new entry point of its
	// meta document (Strategy names the local index).
	EvEntry
	// EvDupDrop: a popped element was discarded by duplicate elimination:
	// a stale copy (the node was queued again nearer, and that copy popped
	// first), or, under the §5.1 coverage rule, an element an earlier entry
	// point of its meta document already covers.
	EvDupDrop
	// EvProbe: one index probe of a meta document completed; Dist carries
	// the number of results it streamed and Elapsed its duration.
	EvProbe
	// EvLinkHop: the follow step walked a runtime link and offered its target
	// (Node) at priority Dist.  The target is queued only when that is
	// nearer than every earlier offer, so a hop need not push.  Under the
	// coverage rule a region-encoded (PPO) meta document's links below an
	// earlier entry point are not walked again.
	EvLinkHop
	// EvResult: a result was emitted at distance Dist.
	EvResult
	// EvCacheHit / EvCacheMiss: the query cache answered / fell through.
	EvCacheHit
	EvCacheMiss
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvPop:
		return "pop"
	case EvEntry:
		return "entry"
	case EvDupDrop:
		return "dup-drop"
	case EvProbe:
		return "probe"
	case EvLinkHop:
		return "link-hop"
	case EvResult:
		return "result"
	case EvCacheHit:
		return "cache-hit"
	case EvCacheMiss:
		return "cache-miss"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// MarshalJSON renders the kind as its name.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses the name form emitted by MarshalJSON, so remote
// clients (flixquery -server) can decode a server's EXPLAIN summary.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for c := EvPop; c <= EvCacheMiss; c++ {
		if c.String() == s {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one span-style record.  T is the monotonic offset from the
// trace's start (time.Since on the monotonic clock).
type Event struct {
	T        time.Duration `json:"tNs"`
	Kind     EventKind     `json:"kind"`
	Meta     int32         `json:"meta"`
	Strategy string        `json:"strategy,omitempty"`
	Node     int64         `json:"node,omitempty"`
	Dist     int32         `json:"dist"`
	Elapsed  time.Duration `json:"elapsedNs,omitempty"`
}

// MetaVisit aggregates everything a trace saw inside one meta document —
// the row of flixquery's EXPLAIN output.
type MetaVisit struct {
	Meta      int32         `json:"meta"`
	Strategy  string        `json:"strategy"`
	Entries   int64         `json:"entries"`
	DupDrops  int64         `json:"dupDrops"`
	Results   int64         `json:"results"`
	LinkHops  int64         `json:"linkHops"`
	FirstDist int32         `json:"firstDist"` // distance bound at first admission
	Probe     time.Duration `json:"probeNs"`   // time spent in index probes
}

// DefaultEventLimit caps the raw event list of a Trace unless overridden;
// aggregate counters and MetaVisits keep accumulating past the cap, so
// EXPLAIN summaries stay exact on huge queries.
const DefaultEventLimit = 4096

// Trace records the events of one query evaluation.  The evaluator runs a
// query on a single goroutine, but cache replays, buffered emits and the
// server's slow-query logger may touch a trace from wrapping layers, so a
// mutex (uncontended in practice) keeps it safe for concurrent use.
//
// The engine-facing methods (Pop, Entry, ...) are all no-ops on a nil
// *Trace receiver... except they are never called on one: the evaluator
// guards every call behind a single `opts.Tracer != nil` check, the
// documented zero-overhead fast path.
type Trace struct {
	start time.Time
	limit int

	mu      sync.Mutex
	events  []Event
	dropped int64 // events beyond the limit

	pops, entries, dupDrops, linkHops, results int64
	cacheHit                                   bool
	generation                                 uint64
	metaOrder                                  []int32
	metas                                      map[int32]*MetaVisit
}

// SetGeneration tags the trace with the index generation that served the
// query, so EXPLAIN output and slow-query log lines remain attributable
// after a live reindex hot-swaps the index.
func (t *Trace) SetGeneration(g uint64) {
	t.mu.Lock()
	t.generation = g
	t.mu.Unlock()
}

// NewTrace starts a trace.  eventLimit bounds the raw event list (<= 0
// selects DefaultEventLimit).
func NewTrace(eventLimit int) *Trace {
	if eventLimit <= 0 {
		eventLimit = DefaultEventLimit
	}
	return &Trace{
		start: time.Now(),
		limit: eventLimit,
		metas: make(map[int32]*MetaVisit),
	}
}

// record appends an event, enforcing the cap.  Dropped events are counted
// so Summary can report the truncation instead of hiding it.
func (t *Trace) record(e Event) {
	if len(t.events) >= t.limit {
		t.dropped++
		return
	}
	e.T = time.Since(t.start)
	t.events = append(t.events, e)
}

// visit returns the MetaVisit for a meta document, creating it on first
// admission.
func (t *Trace) visit(meta int32, strategy string, dist int32) *MetaVisit {
	v, ok := t.metas[meta]
	if !ok {
		v = &MetaVisit{Meta: meta, Strategy: strategy, FirstDist: dist}
		t.metas[meta] = v
		t.metaOrder = append(t.metaOrder, meta)
	}
	if v.Strategy == "" {
		v.Strategy = strategy
	}
	return v
}

// Pop records a priority-queue pop at the given distance bound.
func (t *Trace) Pop(node int64, dist int32) {
	t.mu.Lock()
	t.pops++
	t.record(Event{Kind: EvPop, Node: node, Dist: dist})
	t.mu.Unlock()
}

// Entry records the admission of a new entry point into a meta document.
func (t *Trace) Entry(meta int32, strategy string, node int64, dist int32) {
	t.mu.Lock()
	t.entries++
	t.visit(meta, strategy, dist).Entries++
	t.record(Event{Kind: EvEntry, Meta: meta, Strategy: strategy, Node: node, Dist: dist})
	t.mu.Unlock()
}

// DupDrop records a pop discarded by duplicate elimination.
func (t *Trace) DupDrop(meta int32, node int64, dist int32) {
	t.mu.Lock()
	t.dupDrops++
	if v, ok := t.metas[meta]; ok {
		v.DupDrops++
	}
	t.record(Event{Kind: EvDupDrop, Meta: meta, Node: node, Dist: dist})
	t.mu.Unlock()
}

// Probe records one completed index probe: results streamed and duration.
func (t *Trace) Probe(meta int32, strategy string, results int, elapsed time.Duration) {
	t.mu.Lock()
	t.visit(meta, strategy, 0).Probe += elapsed
	t.record(Event{Kind: EvProbe, Meta: meta, Strategy: strategy, Dist: int32(results), Elapsed: elapsed})
	t.mu.Unlock()
}

// LinkHop records a runtime link push at the given frontier priority.
func (t *Trace) LinkHop(meta int32, node int64, dist int32) {
	t.mu.Lock()
	t.linkHops++
	if v, ok := t.metas[meta]; ok {
		v.LinkHops++
	}
	t.record(Event{Kind: EvLinkHop, Meta: meta, Node: node, Dist: dist})
	t.mu.Unlock()
}

// Result records an emitted result.  meta is the emitting meta document.
func (t *Trace) Result(meta int32, node int64, dist int32) {
	t.mu.Lock()
	t.results++
	if v, ok := t.metas[meta]; ok {
		v.Results++
	}
	t.record(Event{Kind: EvResult, Meta: meta, Node: node, Dist: dist})
	t.mu.Unlock()
}

// CacheHit marks the query as answered from the query cache.
func (t *Trace) CacheHit() {
	t.mu.Lock()
	t.cacheHit = true
	t.record(Event{Kind: EvCacheHit})
	t.mu.Unlock()
}

// CacheMiss marks a cache fall-through to the evaluator.
func (t *Trace) CacheMiss() {
	t.mu.Lock()
	t.record(Event{Kind: EvCacheMiss})
	t.mu.Unlock()
}

// Summary folds the trace into its reportable form.  The trace remains
// usable afterwards (the server summarizes once for the response and again
// for the slow-query log).
type Summary struct {
	Elapsed    time.Duration `json:"elapsedNs"`
	Generation uint64        `json:"generation"`
	Pops       int64         `json:"pops"`
	Entries    int64         `json:"entries"`
	DupDrops   int64         `json:"dupDrops"`
	LinkHops   int64         `json:"linkHops"`
	Results    int64         `json:"results"`
	CacheHit   bool          `json:"cacheHit"`
	Metas      []MetaVisit   `json:"metas"`
	Events     []Event       `json:"events,omitempty"`
	Dropped    int64         `json:"eventsDropped,omitempty"`
	NumEvents  int           `json:"numEvents"`
}

// Summary snapshots the trace.  withEvents includes the raw event list
// (EXPLAIN wants it; the slow-query log usually does not).
func (t *Trace) Summary(withEvents bool) Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Summary{
		Elapsed:    time.Since(t.start),
		Generation: t.generation,
		Pops:       t.pops,
		Entries:    t.entries,
		DupDrops:   t.dupDrops,
		LinkHops:   t.linkHops,
		Results:    t.results,
		CacheHit:   t.cacheHit,
		Dropped:    t.dropped,
		NumEvents:  len(t.events),
	}
	s.Metas = make([]MetaVisit, 0, len(t.metaOrder))
	for _, mi := range t.metaOrder {
		s.Metas = append(s.Metas, *t.metas[mi])
	}
	if withEvents {
		s.Events = append([]Event(nil), t.events...)
	}
	return s
}

// Render writes the human-readable EXPLAIN form of the summary — the query
// plan flixquery -explain prints: per-meta-document strategy, entries, link
// hops, results, probe time, plus the frontier pop sequence.
func (s Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query plan: %d pops, %d entries (%d dup-dropped), %d link hops, %d results in %s",
		s.Pops, s.Entries, s.DupDrops, s.LinkHops, s.Results, s.Elapsed.Round(time.Microsecond))
	if s.Generation > 0 {
		fmt.Fprintf(&b, " [gen %d]", s.Generation)
	}
	if s.CacheHit {
		b.WriteString(" [cache hit]")
	}
	b.WriteByte('\n')
	if len(s.Metas) > 0 {
		fmt.Fprintf(&b, "%-6s %-10s %8s %8s %8s %8s %6s %12s\n",
			"meta", "strategy", "entries", "dups", "results", "hops", "dist", "probe")
		for _, m := range s.Metas {
			fmt.Fprintf(&b, "%-6d %-10s %8d %8d %8d %8d %6d %12s\n",
				m.Meta, m.Strategy, m.Entries, m.DupDrops, m.Results, m.LinkHops,
				m.FirstDist, m.Probe.Round(time.Nanosecond))
		}
	}
	if pops := s.popEvents(); len(pops) > 0 {
		b.WriteString("frontier pops (distance bounds): ")
		for i, e := range pops {
			if i > 0 {
				b.WriteString(" -> ")
			}
			fmt.Fprintf(&b, "%d", e.Dist)
			if i == 19 && len(pops) > 20 {
				fmt.Fprintf(&b, " ... (%d more)", len(pops)-20)
				break
			}
		}
		b.WriteByte('\n')
	}
	if s.Dropped > 0 {
		fmt.Fprintf(&b, "(%d events dropped beyond the %d-event cap; aggregates stay exact)\n",
			s.Dropped, s.NumEvents)
	}
	return b.String()
}

// popEvents filters the stored events down to the frontier pops, in order.
func (s Summary) popEvents() []Event {
	var out []Event
	for _, e := range s.Events {
		if e.Kind == EvPop {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}
