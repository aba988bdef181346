package front

// Unit tests on a stub tier, for what needs a held clock or a chosen
// execution order; the behaviour both real tiers share over HTTP is in
// contract_test.go.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/flix"
	"repro/internal/query"
	"repro/internal/xmlgraph"
	"repro/internal/xmlparse"
)

// stubTier answers every scan with nothing, records the order scans ran in,
// and lets a test act before each scan.
type stubTier struct {
	coll    *xmlgraph.Collection
	hits    map[xmlgraph.NodeID]bool // start nodes Locate reports as cached
	metas   map[xmlgraph.NodeID]int32
	before  func(call int)
	partial map[int]bool // scans (by call number) that lose work
	order   []xmlgraph.NodeID
	lost    bool
}

func (s *stubTier) Gate() (int, string)                                       { return 0, "" }
func (s *stubTier) Open(context.Context, Request) Backend                     { return s }
func (s *stubTier) Collection() *xmlgraph.Collection                          { return s.coll }
func (s *stubTier) Done(time.Duration)                                        {}
func (s *stubTier) FinishBatch(http.ResponseWriter, *Reply)                   {}
func (s *stubTier) Finish(http.ResponseWriter, *Reply, int, *query.Evaluator) {}
func (s *stubTier) Connected(from, to xmlgraph.NodeID, opts flix.Options) (int32, bool) {
	return 0, false
}
func (s *stubTier) Ancestors(xmlgraph.NodeID, string, flix.Options, flix.Emit) {}
func (s *stubTier) Evaluator() *query.Evaluator                                { return &query.Evaluator{Index: s} }
func (s *stubTier) Locate(start xmlgraph.NodeID, tag string, _ flix.Options) (int32, bool) {
	return s.metas[start], s.hits[start]
}
func (s *stubTier) TakePartial() bool {
	lost := s.lost
	s.lost = false
	return lost
}
func (s *stubTier) Descendants(start xmlgraph.NodeID, tag string, opts flix.Options, fn flix.Emit) {
	call := len(s.order)
	if s.before != nil {
		s.before(call)
	}
	s.order = append(s.order, start)
	if s.partial[call] {
		s.lost = true
	}
}

func stubFront(t *testing.T, st *stubTier) http.Handler {
	t.Helper()
	coll, err := xmlparse.Parse(map[string]string{"d.xml": `<r><a/><a/><a/><a/><a/></r>`})
	if err != nil {
		t.Fatal(err)
	}
	st.coll = coll
	return New(coll, Config{Who: "stub", MetricPrefix: "stub"}, st)
}

func postBatch(t *testing.T, h http.Handler, target, body string) BatchResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", target, rec.Code, rec.Body)
	}
	var out BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func statuses(r BatchResponse) []string {
	out := make([]string, len(r.Results))
	for i, it := range r.Results {
		out[i] = it.Status
	}
	return out
}

// TestBatchDeadlinePrefix pins the partial-batch contract: when the
// deadline expires mid-batch the response is still HTTP 200 with the
// completed prefix intact, the remainder marked skipped, and the partial
// flag set.
func TestBatchDeadlinePrefix(t *testing.T) {
	st := &stubTier{before: func(call int) {
		if call == 2 {
			time.Sleep(300 * time.Millisecond) // past the 100ms deadline below
		}
	}}
	h := stubFront(t, st)
	// One ordering group, so execution order is request order: the third
	// scan outlives the deadline, the fourth never starts.
	got := postBatch(t, h, "/v1/batch?timeout=100ms", `{"queries":[{"start":"1"},{"start":"2"},{"q":"//["},{"start":"3"},{"start":"4"}]}`)
	if want := []string{"ok", "ok", "error", "ok", "skipped"}; !reflect.DeepEqual(statuses(got), want) {
		t.Fatalf("statuses %v, want %v", statuses(got), want)
	}
	if got.Completed != 4 || !got.Partial || !got.TimedOut {
		t.Errorf("completed=%d partial=%v timedOut=%v, want 4/true/true", got.Completed, got.Partial, got.TimedOut)
	}
	if len(st.order) != 3 {
		t.Errorf("%d scans ran, want 3", len(st.order))
	}
}

// TestBatchExecutionOrder: items the tier can answer without evaluating run
// first, the rest grouped by meta document, each group in request order;
// the response is in request order regardless, and an item is flagged
// truncated exactly when its own scan lost work.
func TestBatchExecutionOrder(t *testing.T) {
	st := &stubTier{
		hits:    map[xmlgraph.NodeID]bool{4: true},
		metas:   map[xmlgraph.NodeID]int32{1: 7, 2: 3, 3: 7, 4: 9, 5: 3},
		partial: map[int]bool{1: true}, // the second scan to run: start 2
	}
	h := stubFront(t, st)
	got := postBatch(t, h, "/v1/batch", `{"queries":[{"start":"1"},{"start":"2"},{"start":"3"},{"start":"4"},{"start":"5"}]}`)
	if want := []xmlgraph.NodeID{4, 2, 5, 1, 3}; !reflect.DeepEqual(st.order, want) {
		t.Errorf("execution order %v, want %v", st.order, want)
	}
	for i, it := range got.Results {
		if it.Status != BatchOK || it.CacheHit != (i == 3) || it.Truncated != (i == 1) {
			t.Errorf("item %d: %+v", i, it)
		}
	}
}

// TestSanitizeRequestID checks the header validation: valid IDs pass
// through, anything else is rejected so the caller assigns a fresh one.
func TestSanitizeRequestID(t *testing.T) {
	for _, id := range []string{"a", "0000002a", "trace-me.42_X", strings.Repeat("z", 64)} {
		if got := SanitizeRequestID(id); got != id {
			t.Errorf("SanitizeRequestID(%q) = %q, want unchanged", id, got)
		}
	}
	for _, id := range []string{"", strings.Repeat("z", 65), "has space", "semi;colon", "new\nline", "quote\"", "ünï"} {
		if got := SanitizeRequestID(id); got != "" {
			t.Errorf("SanitizeRequestID(%q) = %q, want rejection", id, got)
		}
	}
}

// TestRequestIDFormat: assigned IDs keep the shape fmt's %08x gave them.
func TestRequestIDFormat(t *testing.T) {
	for _, seq := range []uint64{0, 1, 0x2a, 0xfffffff, 0x10000000, 0xffffffff, 0x100000000, math.MaxUint64} {
		if got, want := requestID(seq), fmt.Sprintf("%08x", seq); got != want {
			t.Errorf("requestID(%#x) = %q, want %q", seq, got, want)
		}
	}
}
