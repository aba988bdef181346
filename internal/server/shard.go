package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/flix"
	"repro/internal/obs"
	"repro/internal/shard"
)

// ShardConfig runs the server as one shard of a scatter-gather cluster
// (internal/shard).  A shard builds the full index over the full collection
// — the generation/swap machinery is unchanged — but answers partial
// evaluations only over the meta documents the consistent-hash ring assigns
// to it, exporting everything that crosses out as hops for the router to
// re-dispatch.
type ShardConfig struct {
	// ID is this shard's position on the ring, in [0, Count).
	ID int
	// Count is the cluster's shard count.
	Count int
	// VNodes is the ring's virtual nodes per shard (0 = DefaultVNodes).
	// Router and shards must agree.
	VNodes int
}

// shardGen is the per-generation shard state: the ownership mask and the
// decomposition fingerprint both depend on the generation's meta-document
// partitioning, so they swap with it.
type shardGen struct {
	owned       []bool
	ownedCount  int
	fingerprint string
}

// initShard precomputes a generation's ownership mask from the ring.
func (s *Server) initShard(g *generation) {
	if s.cfg.Shard == nil {
		return
	}
	ix := g.ix
	mask := s.ring.OwnedBy(s.cfg.Shard.ID, ix.NumMetaDocuments())
	owned := 0
	for _, o := range mask {
		if o {
			owned++
		}
	}
	g.shard = &shardGen{
		owned:       mask,
		ownedCount:  owned,
		fingerprint: fmt.Sprintf("%016x", ix.MetaFingerprint()),
	}
}

// handleShardEval answers POST /v1/shard/eval: one frontier batch expanded
// within this shard's owned meta documents (flix.PartialDescendants).  It
// shares the admission semaphore with the public endpoints, so a saturated
// shard sheds router batches with 429 — the router's retry/backpressure
// signal.
func (s *Server) handleShardEval(w http.ResponseWriter, r *http.Request) {
	s.reqShardEval.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	g := s.gen.Load()
	if g == nil || g.shard == nil {
		s.notReady.Add(1)
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusServiceUnavailable, "shard not ready: no index generation")
		return
	}
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, "shard at capacity, retry later")
		return
	}
	var req shard.EvalRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad eval request: "+err.Error())
		return
	}
	// The router owns the query deadline; the shard only guards itself
	// against a stuck peer with the server-wide maximum.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
	defer cancel()
	owned := g.shard.owned
	// A distributed trace is requested in-body (authoritative) or via the
	// X-Flix-Trace header; the untraced default keeps the nil-tracer
	// allocation-free fast path.
	var tr *obs.Trace
	if req.Trace || r.Header.Get(shard.TraceHeader) == "1" {
		s.tracedEvals.Add(1)
		tr = obs.NewTrace(s.cfg.TraceEventLimit)
		tr.SetGeneration(g.num)
	}
	t0 := time.Now()
	pr, err := g.ix.PartialDescendants(req.Entries, req.Tag, flix.PartialOptions{
		MaxDist: req.MaxDist,
		Owned: func(mi int32) bool {
			return mi >= 0 && int(mi) < len(owned) && owned[mi]
		},
		Cancel: ctx.Done(),
		Tracer: tr,
	})
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad eval request: "+err.Error())
		return
	}
	if h := s.latency["shard_eval"]; h != nil {
		h.Observe(time.Since(t0))
	}
	resp := &shard.EvalResponse{
		Results:     pr.Results,
		Hops:        pr.Hops,
		Generation:  g.num,
		Fingerprint: g.shard.fingerprint,
		Truncated:   pr.Truncated || expired(ctx),
		Pops:        pr.Pops,
		Entries:     pr.Entries,
		LinkHops:    pr.LinkHops,
	}
	if tr != nil {
		resp.Trace = obs.NewFragment(s.cfg.Shard.ID, tr.Summary(false))
	}
	s.ok(w, resp)
}

// handleShardLinks answers GET /v1/shard/links: the topology export the
// router bootstraps from — the node→meta assignment, the per-meta out-link
// counts and the decomposition fingerprint.  ?summary=1 omits the bulky
// per-node arrays.
func (s *Server) handleShardLinks(w http.ResponseWriter, r *http.Request) {
	g := s.gen.Load()
	if g == nil || g.shard == nil {
		s.notReady.Add(1)
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusServiceUnavailable, "shard not ready: no index generation")
		return
	}
	resp := &shard.LinksResponse{
		Generation:  g.num,
		Fingerprint: g.shard.fingerprint,
		Shard:       s.cfg.Shard.ID,
		Shards:      s.cfg.Shard.Count,
		VNodes:      s.ring.VNodes(),
		NumMetas:    g.ix.NumMetaDocuments(),
		NumNodes:    s.coll.NumNodes(),
		OwnedMetas:  g.shard.ownedCount,
	}
	if !boolParam(r.URL.Query().Get("summary")) {
		resp.MetaOf = g.ix.MetaAssignment()
		resp.LinkCounts = g.ix.MetaOutLinkCounts()
	}
	s.ok(w, resp)
}

// shardStatsz is the /statsz "shard" section.
func (s *Server) shardStatsz(g *generation) map[string]any {
	if s.cfg.Shard == nil || g == nil || g.shard == nil {
		return nil
	}
	out := map[string]any{
		"id":          s.cfg.Shard.ID,
		"count":       s.cfg.Shard.Count,
		"vnodes":      s.ring.VNodes(),
		"ownedMetas":  g.shard.ownedCount,
		"totalMetas":  g.ix.NumMetaDocuments(),
		"fingerprint": g.shard.fingerprint,
		"evals":       s.reqShardEval.Load(),
		"tracedEvals": s.tracedEvals.Load(),
	}
	if sn := s.latency["shard_eval"].Snapshot(); sn.Count > 0 {
		out["evalLatency"] = map[string]any{
			"count": sn.Count,
			"p50":   sn.Quantile(0.50).Round(time.Microsecond).String(),
			"p99":   sn.Quantile(0.99).Round(time.Microsecond).String(),
		}
	}
	return out
}
