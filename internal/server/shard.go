package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/flix"
	"repro/internal/front"
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

// shardGate is the readiness gate of the shard RPCs.
func (s *Server) shardGate() (int, string) {
	if g := s.gen.Load(); g == nil || g.shard == nil {
		return http.StatusServiceUnavailable, "shard not ready: no index generation"
	}
	return 0, ""
}

// maxEvalBody bounds the /v1/shard/eval request body (64 MiB); a larger
// frontier is refused whole, not cut off into a malformed frame.
const maxEvalBody = 64 << 20

// handleShardEval answers POST /v1/shard/eval: one frontier batch expanded
// within this shard's owned meta documents (flix.PartialDescendants), asked
// and answered in the binary frame of shard/protocol.go; errors stay JSON.
// The front admits it under the server-wide maximum deadline — the router
// owns the query deadline; the shard only guards itself against a stuck peer.
func (s *Server) handleShardEval(w http.ResponseWriter, r *http.Request, ctx context.Context, _ url.Values) {
	if r.Method != http.MethodPost {
		s.front.FailMethod(w, "POST only")
		return
	}
	var req shard.EvalRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEvalBody))
	if err == nil {
		err = req.DecodeFrame(body)
	}
	if err != nil {
		s.front.Fail(w, http.StatusBadRequest, "bad eval request: "+err.Error())
		return
	}
	g := s.gen.Load()
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
	pr, err := g.ix.PartialDescendants(req.Entries, req.Tag, flix.PartialOptions{
		MaxDist:    req.MaxDist,
		MaxResults: req.K,
		Owned: func(mi int32) bool {
			return mi >= 0 && int(mi) < len(owned) && owned[mi]
		},
		Cancel: ctx.Done(),
		Tracer: tr,
	})
	if err != nil {
		s.front.Fail(w, http.StatusBadRequest, "bad eval request: "+err.Error())
		return
	}
	resp := &shard.EvalResponse{
		Results:     pr.Results,
		Hops:        pr.Hops,
		Generation:  g.num,
		Fingerprint: g.shard.fingerprint,
		Truncated:   pr.Truncated || front.Expired(ctx),
		Pops:        pr.Pops,
		Entries:     pr.Entries,
		LinkHops:    pr.LinkHops,
	}
	if tr != nil {
		resp.Trace = obs.NewFragment(s.cfg.Shard.ID, tr.Summary(false))
	}
	frame, err := resp.AppendFrame(nil)
	if err != nil {
		s.front.Fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", shard.FrameContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame) //nolint:errcheck // client gone; nothing to do
}

// handleShardLinks answers GET /v1/shard/links: the topology export the
// router bootstraps from — the node→meta assignment, the per-meta out-link
// counts and the decomposition fingerprint.  ?summary=1 omits the bulky
// per-node arrays.
func (s *Server) handleShardLinks(w http.ResponseWriter, r *http.Request) {
	if code, msg := s.shardGate(); code != 0 {
		s.front.Refuse(w, code, msg)
		return
	}
	g := s.gen.Load()
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
	if !front.BoolParam(r.URL.Query().Get("summary")) {
		resp.MetaOf = g.ix.MetaAssignment()
		resp.LinkCounts = g.ix.MetaOutLinkCounts()
	}
	front.OK(w, resp)
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
		"evals":       s.front.Requests("shard_eval"),
		"tracedEvals": s.tracedEvals.Load(),
	}
	if sn := s.front.Latency()["shard_eval"].Snapshot(); sn.Count > 0 {
		out["evalLatency"] = map[string]any{
			"count": sn.Count,
			"p50":   sn.Quantile(0.50).Round(time.Microsecond).String(),
			"p99":   sn.Quantile(0.99).Round(time.Microsecond).String(),
		}
	}
	return out
}
