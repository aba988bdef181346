package server

import (
	"context"
	"errors"
	"net/http"
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

// shardGate is the readiness gate of the eval records.
func (s *Server) shardGate() (int, string) {
	if g := s.gen.Load(); g == nil || g.shard == nil {
		return http.StatusServiceUnavailable, "shard not ready: no index generation"
	}
	return 0, ""
}

// handleEvalStream upgrades a router's connection to an eval stream and
// serves its records; a request to the path without the upgrade is
// answered 426 (front.Upgrade).
func (s *Server) handleEvalStream(w http.ResponseWriter, r *http.Request) {
	s.front.Upgrade(w, r, shard.EvalProtocol, s.serveEvalStream)
}

// keptAnswer is the largest answer buffer a stream keeps for its next
// record.
const keptAnswer = 1 << 20

// serveEvalStream answers the records of one eval stream in order, on the
// stream's goroutine.  Each record is admitted as an HTTP request is
// (front.Endpoint.Admit: the gate, the in-flight semaphore, the MaxTimeout
// deadline, the shard_eval counter and latency histogram) and written to
// the access log as one.  A record that cannot be read — longer than
// shard.MaxRecord, or malformed — is answered 400 and ends the stream,
// whose framing is lost.
func (s *Server) serveEvalStream(st *front.Stream) {
	records := shard.NewRecordReader(st.R)
	var payload, out []byte
	for st.Next() {
		t0 := time.Now()
		reqID, frame, err := records.Request()
		if err != nil && !errors.Is(err, shard.ErrBadRecord) {
			return
		}
		status := http.StatusBadRequest
		if err != nil {
			s.front.Count(status)
			payload = append(payload[:0], err.Error()...)
		} else {
			s.evals.Admit(st.Context(), nil, func(code int, msg string) {
				status, payload = code, append(payload[:0], msg...)
			}, func(ctx context.Context) {
				if status, payload = s.eval(ctx, frame, payload[:0]); status != http.StatusOK {
					s.front.Count(status)
				}
			})
		}
		out = shard.AppendAnswer(out[:0], status, payload)
		// Logged before the answer goes out, as a small HTTP answer's line
		// is written before net/http flushes it: whoever holds the answer
		// finds the record in the log.
		s.front.LogRecord(reqID, http.MethodPost, shard.EvalPath, status, time.Since(t0))
		werr := st.Write(out)
		if werr != nil || err != nil {
			return
		}
		if cap(out) > keptAnswer {
			payload, out = nil, nil
		}
	}
}

// eval answers one eval frame: one frontier batch expanded within this
// shard's owned meta documents (flix.PartialDescendants) under ctx, the
// request deadline — the router owns the query deadline; the shard only
// guards itself against a stuck peer.  It returns the status and, appended
// to buf, the answer's frame on 200 or the error text otherwise.
func (s *Server) eval(ctx context.Context, frame, buf []byte) (int, []byte) {
	var req shard.EvalRequest
	if err := req.DecodeFrame(frame); err != nil {
		return http.StatusBadRequest, append(append(buf, "bad eval request: "...), err.Error()...)
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
		return http.StatusBadRequest, append(append(buf, "bad eval request: "...), err.Error()...)
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
	out, err := resp.AppendFrame(buf)
	if err != nil {
		return http.StatusInternalServerError, append(buf, err.Error()...)
	}
	return http.StatusOK, out
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
		"streams":     s.front.Streams(),
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
