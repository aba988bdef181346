package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/xmlgraph"
)

// wireNode is one result element as the servers render it.
type wireNode struct {
	Node    xmlgraph.NodeID `json:"node"`
	Tag     string          `json:"tag"`
	Dist    int32           `json:"dist"`
	Score   float64         `json:"score"`
	PathLen int32           `json:"pathLen"`
}

// wireSummary holds the counts and flags of a query endpoint's response,
// wireResp the whole body (the union over the endpoints).
type wireSummary struct {
	Count     *int  `json:"count"`
	TimedOut  bool  `json:"timedOut"`
	Partial   bool  `json:"partial"`
	Truncated bool  `json:"truncated"`
	Connected *bool `json:"connected"`
	Dist      int32 `json:"dist"`
}

type wireResp struct {
	Results []wireNode `json:"results"`
	wireSummary
}

// summarize decodes the fields a timed response is judged by — counts and
// flags, no result elements — into one comparable string.
func summarize(o *op, body []byte) (string, error) {
	if o.class == classBatch {
		var br struct {
			Results []struct {
				Status    string `json:"status"`
				Count     int    `json:"count"`
				Truncated bool   `json:"truncated"`
			} `json:"results"`
			Completed int  `json:"completed"`
			Partial   bool `json:"partial"`
			TimedOut  bool `json:"timedOut"`
		}
		if err := json.Unmarshal(body, &br); err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "completed=%d partial=%v timedOut=%v", br.Completed, br.Partial, br.TimedOut)
		for _, it := range br.Results {
			fmt.Fprintf(&b, " %s:%d:%v", it.Status, it.Count, it.Truncated)
		}
		return b.String(), nil
	}
	var r wireSummary
	if err := json.Unmarshal(body, &r); err != nil {
		return "", err
	}
	s := fmt.Sprintf("timedOut=%v partial=%v truncated=%v", r.TimedOut, r.Partial, r.Truncated)
	if r.Count != nil {
		s += fmt.Sprintf(" count=%d", *r.Count)
	}
	if r.Connected != nil {
		s += fmt.Sprintf(" connected=%v dist=%d", *r.Connected, r.Dist)
	}
	return s, nil
}

// sameSummary is the slow path of the timed check.
func sameSummary(o *op, body []byte) error {
	got, err := summarize(o, body)
	if err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	if got != o.want {
		return fmt.Errorf("answer %q, verified answer was %q", got, o.want)
	}
	return nil
}

// claim is one answer the servers gave that the oracle has to confirm: a
// descendants result list or a connection test, from start.
type claim struct {
	target    string
	start     xmlgraph.NodeID
	connected bool // a connection test (to, isConn, dist) rather than a result list
	tag       string
	results   []wireNode
	to        xmlgraph.NodeID
	isConn    bool
	dist      int32
}

// verifier runs the untimed verification pass: every distinct request of
// the op list is sent once, decoded in full and compared element for
// element with the BFS oracle (descendants, connected) or the reference
// ranking (ranked queries).
type verifier struct {
	s     *stack
	exact bool // the router returns true shortest distances in (dist, node) order

	mu     sync.Mutex
	claims []claim
	ranked map[string][]wireNode // expression → served top-k
}

// collect is the judge of the verification lap: it decodes the response,
// files its claims for the oracle and records on the op what a correct
// answer looks like for the timed phase.
func (v *verifier) collect(o *op, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, firstLine(body))
	}
	want, err := summarize(o, body)
	if err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	o.want = want
	// head ends where the generation number or the result list begins and
	// tail starts after the last list, so neither holds anything that
	// legitimately varies between two correct answers.
	cut := len(body)
	for _, key := range []string{`"generation"`, `"results"`} {
		if i := bytes.Index(body, []byte(key)); i >= 0 && i < cut {
			cut = i
		}
	}
	o.head = append([]byte(nil), body[:cut]...)
	o.tail = append([]byte(nil), body[max(bytes.LastIndexByte(body, ']')+1, cut):]...)

	if o.class == classBatch {
		var br shard.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			return err
		}
		if br.Partial || br.TimedOut || br.Completed != len(o.items) || len(br.Results) != len(o.items) {
			return fmt.Errorf("batch incomplete: completed %d of %d, partial=%v timedOut=%v", br.Completed, len(o.items), br.Partial, br.TimedOut)
		}
		for i, it := range br.Results {
			if it.Status != shard.BatchOK || it.Truncated || it.Count != len(it.Results) {
				return fmt.Errorf("batch item %d: status %q truncated=%v count %d of %d", i, it.Status, it.Truncated, it.Count, len(it.Results))
			}
			nodes := make([]wireNode, len(it.Results))
			for j, r := range it.Results {
				nodes[j] = wireNode{Node: r.Node, Tag: r.Tag, Dist: r.Dist, Score: r.Score, PathLen: r.PathLen}
			}
			v.file(&o.items[i], fmt.Sprintf("%s item %d", o.target, i), nodes)
		}
		return nil
	}
	var r wireResp
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.TimedOut || r.Partial || r.Truncated {
		return fmt.Errorf("timedOut=%v partial=%v truncated=%v", r.TimedOut, r.Partial, r.Truncated)
	}
	if o.class == classConnected {
		if r.Connected == nil {
			return fmt.Errorf("no connected field")
		}
		v.mu.Lock()
		v.claims = append(v.claims, claim{target: o.target, start: o.start, connected: true, to: o.to, isConn: *r.Connected, dist: r.Dist})
		v.mu.Unlock()
		return nil
	}
	if r.Count == nil || *r.Count != len(r.Results) {
		return fmt.Errorf("count field disagrees with %d results", len(r.Results))
	}
	v.file(o, o.target, r.Results)
	return nil
}

// file records a result list under the oracle that judges it.
func (v *verifier) file(o *op, target string, nodes []wireNode) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if o.class == classRanked {
		v.ranked[o.expr] = nodes
		return
	}
	v.claims = append(v.claims, claim{target: target, start: o.start, tag: o.tag, results: nodes})
}

// fullListBudget bounds the completeness sample: that many descendants
// requests with at most fullListMax oracle results are fetched again
// without a limit and compared with the complete BFS answer.
const (
	fullListBudget = 100
	fullListMax    = 2000
)

// verify sends every distinct request once (through real reopen cycles
// where the workload has them), then has the oracles confirm the answers.
// It returns the number of answers confirmed.
func (s *stack) verify(clients []*client, ops []op) (int, error) {
	v := &verifier{s: s, exact: s.w.shards > 0, ranked: map[string][]wireNode{}}

	// One representative per distinct request; the rest copy its verdict.
	first := map[string]int{}
	var distinct []op
	rep := make([]int, len(ops))
	for i := range ops {
		key := string(renderOps(ops[i : i+1]))
		j, seen := first[key]
		if !seen {
			j = len(distinct)
			first[key] = j
			distinct = append(distinct, ops[i])
		}
		rep[i] = j
	}
	l := s.runLap(clients, distinct, v.collect)
	if l.failed > 0 {
		return 0, fmt.Errorf("%d of %d requests failed, first: %w", l.failed, len(distinct), l.firstErr)
	}
	for i := range ops {
		ops[i] = distinct[rep[i]]
	}

	// BFS once per start, shared by all claims from it.
	sort.SliceStable(v.claims, func(i, j int) bool { return v.claims[i].start < v.claims[j].start })
	var oracle *reach
	full := fullListBudget
	for _, c := range v.claims {
		if oracle == nil || c.start != oracle.start {
			oracle = newReach(s.corpus.coll, c.start)
		}
		if c.connected {
			d := oracle.dist[c.to]
			reachable := d >= 0
			if c.isConn != reachable || (reachable && (c.dist < d || (v.exact && c.dist != d))) {
				return 0, fmt.Errorf("%s: connected=%v dist=%d, BFS says reachable=%v dist=%d", c.target, c.isConn, c.dist, reachable, d)
			}
			continue
		}
		if err := v.checkList(c, oracle, descLimit); err != nil {
			return 0, err
		}
		if total := oracle.total(c.tag); full > 0 && total > descLimit && total <= fullListMax {
			full--
			all := claim{target: fmt.Sprintf("/v1/descendants?start=%d&tag=%s&k=%d", c.start, c.tag, 1<<20), start: c.start, tag: c.tag}
			status, body, err := clients[0].roundTrip(&op{target: all.target}, 0, -1)
			if err != nil || status != http.StatusOK {
				return 0, fmt.Errorf("%s: status %d: %v", all.target, status, err)
			}
			var r wireResp
			if err := json.Unmarshal(body, &r); err != nil {
				return 0, fmt.Errorf("%s: %w", all.target, err)
			}
			all.results = r.Results
			if err := v.checkList(all, oracle, 1<<20); err != nil {
				return 0, err
			}
		}
	}

	// Ranked queries: the served top-k must be the prefix of the frozen
	// reference evaluator's full ranking over the same index.
	ev := &query.Evaluator{Index: s.serving}
	for expr, got := range v.ranked {
		q, err := query.Parse(expr)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", expr, err)
		}
		ref := ev.ReferenceEvaluate(q)
		if len(ref) > rankedLimit {
			ref = ref[:rankedLimit]
		}
		if len(got) != len(ref) {
			return 0, fmt.Errorf("%s: %d matches, reference ranking has %d", expr, len(got), len(ref))
		}
		for i, m := range ref {
			if got[i].Node != m.Node || got[i].Score != m.Score || got[i].PathLen != m.PathLen {
				return 0, fmt.Errorf("%s: match %d is %+v, reference %+v", expr, i, got[i], m)
			}
		}
	}
	return len(v.claims) + len(v.ranked), nil
}

// reach is the BFS oracle's answer for one start: the exact distance to
// every element, the reachable ones, and how many of them carry each tag.
type reach struct {
	coll  *xmlgraph.Collection
	start xmlgraph.NodeID
	dist  []int32 // -1 where unreachable
	nodes []xmlgraph.NodeID
	byTag map[string]int
}

func newReach(coll *xmlgraph.Collection, start xmlgraph.NodeID) *reach {
	r := &reach{coll: coll, start: start, dist: coll.BFSDistances(start), byTag: map[string]int{}}
	for n, d := range r.dist {
		if d > 0 {
			r.nodes = append(r.nodes, xmlgraph.NodeID(n))
			r.byTag[coll.Tag(xmlgraph.NodeID(n))]++
		}
	}
	return r
}

// total is the number of descendants with the tag ("" counts them all).
func (r *reach) total(tag string) int {
	if tag == "" {
		return len(r.nodes)
	}
	return r.byTag[tag]
}

// prefix is the first k descendants with the tag in (dist, node) order.
func (r *reach) prefix(tag string, k int) []xmlgraph.NodeDist {
	var out []xmlgraph.NodeDist
	for _, n := range r.nodes {
		if tag == "" || r.coll.Tag(n) == tag {
			out = append(out, xmlgraph.NodeDist{Node: n, Dist: r.dist[n]})
		}
	}
	xmlgraph.SortNodeDists(out)
	return out[:min(k, len(out))]
}

// checkList compares one served descendants list with the oracle under
// limit k.  Every element must be a real descendant with the right tag,
// reported once, at a distance that is a valid path length (the single-node
// evaluator reports upper bounds across meta documents); the list must hold
// min(k, total) elements.  In exact mode (the router) it must equal the
// oracle's (dist, node)-ordered prefix element for element.
func (v *verifier) checkList(c claim, oracle *reach, k int) error {
	if total := oracle.total(c.tag); len(c.results) != min(k, total) {
		return fmt.Errorf("%s: %d results, oracle has %d (limit %d)", c.target, len(c.results), total, k)
	}
	if v.exact {
		want := oracle.prefix(c.tag, k)
		for i, r := range c.results {
			if r.Node != want[i].Node || r.Dist != want[i].Dist {
				return fmt.Errorf("%s: result %d is (%d,%d), oracle (%d,%d)", c.target, i, r.Node, r.Dist, want[i].Node, want[i].Dist)
			}
		}
		return nil
	}
	coll := oracle.coll
	seen := make(map[xmlgraph.NodeID]bool, len(c.results))
	for i, r := range c.results {
		if !coll.Valid(r.Node) || seen[r.Node] {
			return fmt.Errorf("%s: result %d (node %d) is invalid or repeated", c.target, i, r.Node)
		}
		seen[r.Node] = true
		d := oracle.dist[r.Node]
		if d <= 0 || r.Dist < d || (c.tag != "" && coll.Tag(r.Node) != c.tag) || r.Tag != coll.Tag(r.Node) {
			return fmt.Errorf("%s: result %d is (%d %q,%d), oracle distance %d tag %q", c.target, i, r.Node, r.Tag, r.Dist, d, coll.Tag(r.Node))
		}
	}
	return nil
}
