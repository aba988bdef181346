package server

import (
	"context"
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
		fingerprint: ix.Fingerprint(),
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
	// The frame's trace flag asks for a distributed trace; the untraced
	// default keeps the nil-tracer allocation-free fast path.
	var tr *obs.Trace
	if req.Trace {
		s.tracedEvals.Add(1)
		tr = obs.NewTrace(obs.DefaultEventLimit)
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
