package front

// The rendering the serving path did before render.go, frozen as the
// byte-for-byte reference: hits become the wire structs — element by
// element through referenceElement and referenceSnippet — the single-query
// envelope becomes a map, and referenceOK (render_test.go) hands either to
// encoding/json.

import (
	"strings"
	"unicode/utf8"

	"repro/internal/xmlgraph"
)

// match is the wire form of one ranked result.
type match struct {
	Element
	Score   float64 `json:"score"`
	PathLen int32   `json:"pathLen"`
}

func referenceElement(c *xmlgraph.Collection, n xmlgraph.NodeID, dist int32) Element {
	return Element{
		Node: n,
		Tag:  c.Tag(n),
		Doc:  c.Doc(c.DocOf(n)).Name,
		Text: ruleSnippet(c.Node(n).Text),
		Dist: dist,
	}
}

// referenceSnippet compresses element text for the wire, cutting at byte
// 77 whatever stands there.
func referenceSnippet(t string) string {
	t = strings.Join(strings.Fields(t), " ")
	if len(t) > 80 {
		t = t[:77] + "..."
	}
	return t
}

// ruleSnippet is what a snippet must be now: referenceSnippet, except that
// where its cut split a rune of valid text — it ends in a partial rune, which
// goes out as \ufffd — the partial rune is dropped.
func ruleSnippet(t string) string {
	old := referenceSnippet(t)
	if utf8.ValidString(old) || !utf8.ValidString(t) {
		return old
	}
	head := strings.TrimSuffix(old, "...")
	for !utf8.ValidString(head) {
		head = head[:len(head)-1]
	}
	return head + "..."
}

// referenceReply is what the tiers' Finish put into the response map.
func referenceReply(r *Reply) map[string]any {
	resp := map[string]any{}
	if r.Has&HasGeneration != 0 {
		resp["generation"] = r.Generation
	}
	if r.Has&HasTruncated != 0 {
		resp["truncated"] = r.Truncated
	}
	if r.Has&HasPartial != 0 {
		resp["partial"] = r.Partial
		resp["failedShards"] = r.FailedShards
	}
	if r.Has&HasRounds != 0 {
		resp["rounds"] = r.Rounds
	}
	if r.Trace != nil {
		resp["trace"] = r.Trace
	}
	return resp
}

// referenceList is a /v1/descendants or (ranked) /v1/query response as the
// handlers built it.
func referenceList(c *xmlgraph.Collection, hits []hit, ranked, timedOut bool, r *Reply) map[string]any {
	resp := referenceReply(r)
	resp["count"], resp["timedOut"] = len(hits), timedOut
	if ranked {
		out := make([]match, 0, len(hits))
		for _, h := range hits {
			out = append(out, match{Element: referenceElement(c, h.node, h.dist), Score: h.score, PathLen: h.dist})
		}
		resp["results"] = out
		return resp
	}
	results := make([]Element, 0, 16)
	for _, h := range hits {
		results = append(results, referenceElement(c, h.node, h.dist))
	}
	resp["results"] = results
	return resp
}

// referenceConnected is a /v1/connected response as the handler built it.
func referenceConnected(ok bool, dist int32, timedOut bool, r *Reply) map[string]any {
	resp := referenceReply(r)
	resp["connected"], resp["timedOut"] = ok, timedOut
	if ok {
		resp["dist"] = dist
	}
	return resp
}

// referenceBatch is a /v1/batch response as the handler built it.
func referenceBatch(c *xmlgraph.Collection, items []batchItem, hits []hit, completed int, partial, timedOut bool, r *Reply) *BatchResponse {
	resp := &BatchResponse{
		Results: make([]BatchItem, len(items)), Completed: completed, Partial: partial, TimedOut: timedOut,
		Generation: r.Generation, FailedShards: r.FailedShards,
	}
	for i, it := range items {
		item := BatchItem{Status: it.status, Error: it.err, Truncated: it.truncated, CacheHit: it.cacheHit}
		if it.status == BatchOK {
			item.Results = make([]BatchResult, 0, 8)
			for _, h := range hits[it.off : it.off+it.n] {
				res := BatchResult{Element: referenceElement(c, h.node, h.dist)}
				if it.ranked {
					res.Score, res.PathLen = h.score, h.dist
				}
				item.Results = append(item.Results, res)
			}
		}
		item.Count = len(item.Results)
		resp.Results[i] = item
	}
	return resp
}
