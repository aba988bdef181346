package server

import (
	"errors"
	"net/http"

	"repro/internal/front"
	"repro/internal/rebuild"
)

// Reindexer is the server's view of the background re-optimizer
// (rebuild.Manager): plan the next configuration, or execute a rebuild and
// hot-swap now.
type Reindexer interface {
	Plan() rebuild.Plan
	Reindex(force bool) (rebuild.Plan, error)
	Status() rebuild.Status
}

// handleReindex answers POST /v1/admin/reindex[?dry=1][&force=1]: the
// manual trigger of the live-reindexing loop.
//
//	dry=1    report the plan the current load produces; build nothing
//	force=1  rebuild and swap even when the planner sees no need (the
//	         resulting index uses the planned — possibly unchanged —
//	         configuration)
//
// Rebuilds run outside the query admission semaphore: they are operator
// actions, not queries, and the build happens off the serving path anyway.
// Concurrent triggers are refused with 409, not queued.
func (s *Server) handleReindex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.front.FailMethod(w, "POST required")
		return
	}
	rx := s.getReindexer()
	if rx == nil {
		s.front.Fail(w, http.StatusNotImplemented, "no reindexer configured (start flixd with -reindex-interval or wire rebuild.Manager)")
		return
	}
	q := r.URL.Query()
	if front.BoolParam(q.Get("dry")) {
		front.OK(w, map[string]any{
			"dryRun": true,
			"plan":   planJSON(rx.Plan()),
		})
		return
	}
	plan, err := rx.Reindex(front.BoolParam(q.Get("force")))
	switch {
	case errors.Is(err, rebuild.ErrBusy):
		s.front.Fail(w, http.StatusConflict, err.Error())
		return
	case err != nil:
		s.front.Fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	swapped := plan.Rebuild || front.BoolParam(q.Get("force"))
	// The swap is done when the new generation is live; its cache may still
	// be warming behind it.
	g := s.gen.Load()
	front.OK(w, map[string]any{
		"dryRun":     false,
		"swapped":    swapped,
		"generation": g.num,
		"warming":    g.warming(),
		"plan":       planJSON(plan),
	})
}

// planJSON renders a rebuild plan for the admin API.
func planJSON(p rebuild.Plan) map[string]any {
	out := map[string]any{
		"rebuild":        p.Rebuild,
		"reason":         p.Reason,
		"queries":        p.Queries,
		"fromGeneration": p.FromGeneration,
		"config": map[string]any{
			"kind":          p.Config.Kind.String(),
			"partitionSize": p.Config.PartitionSize,
			"strategy":      p.Config.Strategy,
		},
	}
	if p.StrategyOverride != "" {
		out["strategyOverride"] = p.StrategyOverride
	}
	return out
}
