package shard

import (
	"context"
	"time"

	"repro/internal/flix"
	"repro/internal/xmlgraph"
)

// GatherTally is what one gather did: its rounds, the hops the shards
// returned, the staged entries the top-k bound removed, the hops it
// re-dispatched, and how it ended (each 0 or 1).
type GatherTally struct {
	Rounds, Hops, Bounded, Redispatched int
	EarlyStops, BudgetStops, Partials   int
}

// Gather runs one rounds loop from start — needK = 0 is the unbounded gather
// /v1/connected and the ranked scans run — for the external test package's
// benchmarks, which the public endpoints cannot ask for k = 0.
func (rt *Router) Gather(ctx context.Context, start xmlgraph.NodeID, tag string, needK int) (results int, t GatherTally) {
	g := rt.gather(ctx, "", []flix.FrontierEntry{{Node: start}}, tag, 0, needK, xmlgraph.InvalidNode, nil)
	return len(g.results), GatherTally{Rounds: g.rounds, Hops: g.hopsSeen, Bounded: g.hopsBounded, Redispatched: g.hopsRedispatched,
		EarlyStops: g.earlyStops, BudgetStops: g.budgetStops, Partials: g.partials}
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

// TopologyOwners returns the loaded topology's per-meta-document owner table,
// or nil and false while no topology is loaded.
func (rt *Router) TopologyOwners() ([]int32, bool) {
	topo := rt.topo.Load()
	if topo == nil {
		return nil, false
	}
	return topo.owner, true
}

// IdleConns returns the number of pooled idle connections to shard i,
// eval streams and health-probe connections together.
func (c *Client) IdleConns(i int) int {
	p := c.pools[i]
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.streams) + len(p.idle)
}

// IdleConns returns the number of pooled idle connections to shard i.
func (rt *Router) IdleConns(i int) int { return rt.client.IdleConns(i) }

// BufferCap returns the capacity of the buffer rr reads records into.
func (rr *RecordReader) BufferCap() int { return cap(rr.buf) }
