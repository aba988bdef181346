package front

// POST /v1/batch: many queries answered in one round trip under one
// admission slot and one deadline.  The motivating workload is the client
// that expands a document set or a dashboard refresh into dozens of small
// connection and ranked queries; issuing them one request each pays the
// admission and HTTP overhead per query and — worse — lets a load spike
// shed half of a logically atomic set.
//
// The handler reorders execution to make the deadline go further without
// changing any answer: descendants items the tier can answer without
// evaluating run first (a node's query cache: they cost microseconds and
// cannot miss the deadline; the router has no such tier), the other
// descendants items run grouped by their start node's meta document
// (consecutive scans traverse the same index structures while they are
// hot, consecutive gathers fan out to the same owning shard), and ranked
// queries run grouped by their first step's tag.  Items appear in the
// response in request order regardless.  When the deadline expires the
// items already examined are returned as a completed prefix — the response
// stays HTTP 200 with "partial": true and the remainder marked "skipped".

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"

	"repro/internal/flix"
	"repro/internal/query"
	"repro/internal/xmlgraph"
)

// Batch item statuses.  Every item in a BatchResponse carries exactly one:
// evaluated items are "ok", items the server looked at but could not run
// (parse error, unknown start node) are "error", and items abandoned when
// the per-batch deadline expired are "skipped".
const (
	BatchOK      = "ok"
	BatchError   = "error"
	BatchSkipped = "skipped"
)

// BatchQuery is one query inside a POST /v1/batch request: a ranked path
// expression when Q is set, otherwise a descendants connection query
// described by Start and Tag.
type BatchQuery struct {
	// Q is a ranked path expression (the /v1/query ?q= syntax).
	Q string `json:"q,omitempty"`
	// Start is the descendants query's start element: a document name or a
	// numeric node ID, exactly like /v1/descendants ?start=.
	Start string `json:"start,omitempty"`
	// Tag is the descendants target element name; empty is the wildcard.
	Tag string `json:"tag,omitempty"`
	// K bounds this item's results (0 = the request default, then the
	// server default).
	K int `json:"k,omitempty"`
	// MaxDist and IncludeSelf mirror the /v1/descendants parameters.
	MaxDist     int32 `json:"maxDist,omitempty"`
	IncludeSelf bool  `json:"self,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
	// K is the default per-item result bound (0 = server default).
	K int `json:"k,omitempty"`
}

// BatchResult is one result element of a batch item: the /v1/descendants
// node shape plus the ranked-query score fields, set on ranked items only.
type BatchResult struct {
	Element
	Score   float64 `json:"score,omitempty"`
	PathLen int32   `json:"pathLen,omitempty"`
}

// BatchItem is one item's answer, in request order.
type BatchItem struct {
	Status  string        `json:"status"`
	Error   string        `json:"error,omitempty"`
	Results []BatchResult `json:"results,omitempty"`
	Count   int           `json:"count"`
	// Truncated reports that this item's evaluation was cut short: a sound
	// but possibly incomplete answer.
	Truncated bool `json:"truncated,omitempty"`
	// CacheHit reports that a descendants item was answered from the query
	// cache (single-node server only; the router has no cache).
	CacheHit bool `json:"cacheHit,omitempty"`
}

// BatchResponse is the body of a POST /v1/batch answer.  Items appear in
// request order regardless of the order they executed in.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
	// Completed counts items actually examined ("ok" or "error"); the
	// remaining len(Results)-Completed items were skipped at the deadline.
	Completed int `json:"completed"`
	// Partial reports that the deadline expired before every item ran.
	Partial    bool   `json:"partial,omitempty"`
	TimedOut   bool   `json:"timedOut"`
	Generation uint64 `json:"generation"`
	// FailedShards lists shards that dropped frontier batches during the
	// router's scatter-gather evaluation (router only).
	FailedShards []int `json:"failedShards,omitempty"`
}

// maxBatchBody bounds the /v1/batch request body (1 MiB).
const maxBatchBody = 1 << 20

// planItem is one executable batch entry: a parsed, resolved query plus the
// keys the execution order sorts by.
type planItem struct {
	idx int // request position
	k   int

	// Ranked items.
	ranked bool
	q      *query.Query
	qTag   string // first step's tag: the anchor grouping key

	// Descendants items.
	start   xmlgraph.NodeID
	tag     string
	maxDist int32
	self    bool
	hit     bool  // answerable without evaluating (Backend.Locate)
	meta    int32 // start's meta document: the grouping key
}

// batch answers POST /v1/batch.  Per-item failures (parse errors, unknown
// start nodes) do not fail the batch: the item carries status "error" and
// the rest proceed.
func (f *Front) batch(w http.ResponseWriter, r *http.Request, ctx context.Context, _ url.Values, be Backend) {
	if r.Method != http.MethodPost {
		f.FailMethod(w, "POST a JSON batch body to /v1/batch")
		return
	}
	var req BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody)).Decode(&req); err != nil {
		f.Fail(w, http.StatusBadRequest, "bad batch body: "+err.Error())
		return
	}
	if len(req.Queries) == 0 {
		f.Fail(w, http.StatusBadRequest, `empty batch: want {"queries": [...]}`)
		return
	}
	if len(req.Queries) > f.cfg.MaxBatch {
		f.Fail(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d queries exceeds the limit of %d", len(req.Queries), f.cfg.MaxBatch))
		return
	}

	// Items execute out of request order and are written in it: every item's
	// hits go to the one pooled list as it runs, and the item keeps where.
	b := okBufs.Get().(*okBuf)
	defer b.release()
	b.items = slices.Grow(b.items, len(req.Queries))[:len(req.Queries)]
	items := b.items
	plan := make([]planItem, 0, len(req.Queries))
	for i, bq := range req.Queries {
		it, err := f.planItem(be, i, bq, req.K)
		if err != nil {
			items[i] = batchItem{status: BatchError, err: err.Error()}
			continue
		}
		plan = append(plan, it)
	}
	orderPlan(plan)

	// One evaluator for every ranked item in the batch: EvaluateTopK pools
	// its scratch, so consecutive ranked queries reuse the same heaps and
	// stream buffers instead of rewarming the pool per item.
	var ev *query.Evaluator
	executed := 0
	for _, it := range plan {
		if Expired(ctx) {
			break
		}
		if it.ranked && ev == nil {
			ev = be.Evaluator()
		}
		items[it.idx] = f.runItem(ctx, be, ev, it, b)
		executed++
	}
	for _, it := range plan[executed:] {
		items[it.idx] = batchItem{status: BatchSkipped, err: "batch deadline expired"}
	}

	timedOut := f.timedOut(ctx)
	be.FinishBatch(w, &b.reply)
	f.writeBatch(w, b, len(items)-(len(plan)-executed), executed < len(plan), timedOut)
}

// planItem parses and resolves one batch entry, computing its result bound
// and ordering keys.  Errors here become per-item "error" statuses, not
// batch failures.
func (f *Front) planItem(be Backend, i int, bq BatchQuery, defK int) (planItem, error) {
	it := planItem{idx: i, k: bq.K}
	if it.k <= 0 {
		it.k = defK
	}
	if it.k <= 0 {
		it.k = f.cfg.DefaultLimit
	}
	it.k = min(it.k, f.cfg.MaxLimit)
	if bq.Q != "" {
		pq, err := query.Parse(bq.Q)
		if err != nil {
			return it, err
		}
		it.ranked, it.q, it.qTag = true, pq, pq.Steps[0].Tag
		return it, nil
	}
	start, err := f.resolveNode(bq.Start)
	if err != nil {
		return it, fmt.Errorf("start: %v", err)
	}
	if bq.MaxDist < 0 {
		return it, fmt.Errorf("bad maxDist %d (want >= 0)", bq.MaxDist)
	}
	it.start, it.tag, it.maxDist, it.self = start, bq.Tag, bq.MaxDist, bq.IncludeSelf
	it.meta, it.hit = be.Locate(start, bq.Tag)
	return it, nil
}

// orderPlan sorts executable items into execution order: descendants
// answerable without evaluating first, then the others grouped by the
// start node's meta document, then ranked queries grouped by their first
// step's tag.  The sort is stable, so within each group the request order —
// and therefore the completed prefix a deadline expiry leaves behind — is
// predictable.
func orderPlan(plan []planItem) {
	rank := func(it planItem) int {
		switch {
		case !it.ranked && it.hit:
			return 0
		case !it.ranked:
			return 1
		default:
			return 2
		}
	}
	sort.SliceStable(plan, func(i, j int) bool {
		a, b := plan[i], plan[j]
		ra, rb := rank(a), rank(b)
		if ra != rb {
			return ra < rb
		}
		switch ra {
		case 1:
			return a.meta < b.meta
		case 2:
			return a.qTag < b.qTag
		}
		return false
	})
}

// runItem evaluates one planned item, appending its hits to b's.
func (f *Front) runItem(ctx context.Context, be Backend, ev *query.Evaluator, it planItem, b *okBuf) batchItem {
	item := batchItem{status: BatchOK, off: len(b.hits), ranked: it.ranked, cacheHit: it.hit}
	if it.ranked {
		for _, m := range ev.EvaluateTopK(it.q, it.k) {
			b.hits = append(b.hits, hit{node: m.Node, dist: m.PathLen, score: m.Score})
		}
		// TakePartial first: it must run (and reset) for every item.
		item.truncated = be.TakePartial() || ev.Stats.Truncated
	} else {
		be.Descendants(it.start, it.tag, flix.Options{
			MaxResults:  it.k,
			MaxDist:     it.maxDist,
			IncludeSelf: it.self,
			Cancel:      ctx.Done(),
		}, func(r flix.Result) bool {
			b.hits = append(b.hits, hit{node: r.Node, dist: r.Dist})
			return true
		})
		item.truncated = be.TakePartial()
	}
	item.n = len(b.hits) - item.off
	return item
}
