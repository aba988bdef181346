package shard

import (
	"context"
	"time"

	"repro/internal/flix"
	"repro/internal/xmlgraph"
)

// Gather runs one rounds loop from start — needK = 0 is the unbounded gather
// /v1/connected and the ranked scans run — for the external test package's
// benchmarks, which the public endpoints cannot ask for k = 0.
func (rt *Router) Gather(ctx context.Context, start xmlgraph.NodeID, tag string, needK int) (results, rounds int) {
	g := rt.gather(ctx, "", []flix.FrontierEntry{{Node: start}}, tag, 0, needK, xmlgraph.InvalidNode, nil)
	return len(g.results), g.rounds
}

// WaitReady blocks until the router is ready or ctx expires.
func (rt *Router) WaitReady(ctx context.Context) error {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		if rt.Ready() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}
