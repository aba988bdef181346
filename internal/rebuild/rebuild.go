// Package rebuild closes the paper's §7 self-tuning loop at run time: a
// background re-optimizer that watches the live query load of a serving
// index, decides when the built configuration no longer fits the observed
// workload, rebuilds off the serving path with the parallel build pipeline,
// and hot-swaps the result in atomically.
//
// The decision, `rebuild.Manager.Plan`, combines two signals:
//
//   - Index.Advise, the engine's own analysis of QueryStats (link hops,
//     entry points, duplicate-drop ratio per query) — it proposes a new
//     partitioning when queries keep crossing meta-document boundaries.
//   - The serving layer's per-strategy latency histograms — when one
//     strategy's p99 dwarfs the others on meaningful traffic, the planner
//     adds a per-meta-document strategy override (Config.Strategy, which
//     the Indexing Strategy Selector applies wherever feasible and ignores
//     where not).
//
// A generation must serve a minimum number of queries before its
// statistics are trusted; below it the plan is a no-op
// (`TestPlanMinQueriesGate`).  A Manager never builds concurrently with
// itself — a second trigger gets `rebuild.ErrBusy`, HTTP 409, not a queue
// (`TestReindexBusy`) — never touches the serving index, and installs a
// finished index with one Target.Install call; in-flight queries finish on
// the generation they started on.  Finished generations are optionally
// persisted as v2 snapshots under a retention bound
// (`TestPersistRetentionAndLatest`).
package rebuild

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flix"
	"repro/internal/obs"
	"repro/internal/xmlgraph"
)

// Target is the serving side the manager observes and swaps — implemented
// by server.Server.
type Target interface {
	// CurrentIndex returns the serving index (nil before the first
	// install).  Its QueryStats and Advise describe the load observed on
	// the current generation only, which is exactly the window the
	// planner wants: counters reset naturally on every swap.
	CurrentIndex() *flix.Index
	// Generation returns the current generation number.
	Generation() uint64
	// StrategyLatency snapshots the per-strategy latency histograms of
	// the current generation.
	StrategyLatency() map[string]obs.HistSnapshot
	// Install hot-swaps a newly built index in and returns its generation
	// number.
	Install(ix *flix.Index, reason string) uint64
}

// Plan is one proposed reconfiguration — what a dry-run reports and a
// rebuild executes.
type Plan struct {
	// Rebuild reports whether the observed load justifies a rebuild.
	Rebuild bool
	// Config is the configuration a rebuild would use (the current one
	// when Rebuild is false, so a forced rebuild re-optimizes in place).
	Config flix.Config
	// Reason explains the decision.
	Reason string
	// Queries is the number of queries the decision is based on.
	Queries int64
	// FromGeneration is the generation the plan was derived from.
	FromGeneration uint64
	// StrategyOverride names the per-meta-document strategy the latency
	// signal forced into Config.Strategy ("" when none).
	StrategyOverride string
}

// ErrBusy is returned when a rebuild is requested while another is in
// flight; rebuilds are serialized, never queued.
var ErrBusy = errors.New("rebuild: a rebuild is already in flight")

// Config tunes the manager.
type Config struct {
	// Interval is the cadence of the background loop (Run).  <= 0 means
	// Run returns immediately; manual Reindex calls still work.
	Interval time.Duration
	// MinQueries is the number of queries a generation must have served
	// before the planner trusts the statistics.  Default 50.
	MinQueries int64
	// Parallelism is the build worker-pool width (0 = all CPUs).
	Parallelism int
	// SnapshotDir, when non-empty, persists every installed generation as
	// gen-<number>.flix.
	SnapshotDir string
	// SnapshotCompress persists PPO sections in their bit-packed view
	// (per section, with raw fallback when it does not pay); it chooses
	// between PPO's two views only (flix.SnapshotV2Options.Compress).
	SnapshotCompress bool
	// Retain bounds how many generation snapshots are kept on disk.
	// Default 3.
	Retain int
	// Logger receives one line per background decision.  Nil disables.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.MinQueries <= 0 {
		c.MinQueries = 50
	}
	if c.Retain <= 0 {
		c.Retain = 3
	}
	return c
}

// Manager is the background re-optimizer for one collection/target pair.
type Manager struct {
	coll   *xmlgraph.Collection
	target Target
	cfg    Config

	building atomic.Bool
	rebuilds atomic.Int64 // completed build+swap cycles
	skipped  atomic.Int64 // decisions that kept the current index

	mu        sync.Mutex
	lastPlan  Plan
	lastErr   error
	lastBuild time.Duration
}

// New returns a manager re-optimizing target's index over coll.
func New(coll *xmlgraph.Collection, target Target, cfg Config) *Manager {
	return &Manager{coll: coll, target: target, cfg: cfg.withDefaults()}
}

// Plan derives the reconfiguration the current load asks for, without
// building anything — the admin endpoint's dry-run.
func (m *Manager) Plan() Plan {
	ix := m.target.CurrentIndex()
	if ix == nil {
		return Plan{Reason: "no index installed yet"}
	}
	plan := Plan{FromGeneration: m.target.Generation(), Config: ix.Config()}
	snap := ix.Stats().Snapshot()
	plan.Queries = snap.Queries
	if snap.Queries < m.cfg.MinQueries {
		plan.Reason = fmt.Sprintf("only %d queries this generation (min %d): not enough signal",
			snap.Queries, m.cfg.MinQueries)
		return plan
	}
	adv := ix.Advise()
	plan.Rebuild = adv.Rebuild
	plan.Reason = adv.Reason
	if adv.Rebuild {
		plan.Config = adv.Config
	}
	if name, why := m.strategyOverride(); name != "" && name != plan.Config.Strategy {
		plan.Config.Strategy = name
		plan.StrategyOverride = name
		plan.Rebuild = true
		plan.Reason += "; " + why
	}
	return plan
}

// strategyOverride inspects the per-strategy latency histograms: when a
// strategy carrying a meaningful share of requests has a p99 at least 4x
// the fastest strategy's, it proposes forcing the fast strategy wherever
// the selector finds it feasible.
func (m *Manager) strategyOverride() (name, why string) {
	lat := m.target.StrategyLatency()
	var total uint64
	for _, sn := range lat {
		total += sn.Count
	}
	if total < uint64(m.cfg.MinQueries) {
		return "", ""
	}
	const (
		minShare = 0.1 // slow strategy must serve >= 10% of requests
		factor   = 4.0 // ... with p99 >= 4x the fastest
	)
	var best, worst string
	var bestP99, worstP99 time.Duration
	for n, sn := range lat {
		if sn.Count == 0 {
			continue
		}
		p99 := sn.Quantile(0.99)
		if best == "" || p99 < bestP99 {
			best, bestP99 = n, p99
		}
		if float64(sn.Count) >= minShare*float64(total) && (worst == "" || p99 > worstP99) {
			worst, worstP99 = n, p99
		}
	}
	if best == "" || worst == "" || best == worst || bestP99 <= 0 {
		return "", ""
	}
	if float64(worstP99) < factor*float64(bestP99) {
		return "", ""
	}
	return best, fmt.Sprintf("strategy %q p99 %s is %.1fx strategy %q p99 %s: prefer %q where feasible",
		worst, worstP99.Round(time.Microsecond), float64(worstP99)/float64(bestP99),
		best, bestP99.Round(time.Microsecond), best)
}

// Reindex runs one plan/build/swap cycle.  Without force it is a no-op
// (beyond planning) unless the planner asks for a rebuild; with force it
// rebuilds with the planned configuration either way — the manual
// re-optimize of the admin endpoint.  Returns ErrBusy when a rebuild is
// already in flight.
func (m *Manager) Reindex(force bool) (Plan, error) {
	plan := m.Plan()
	if !plan.Rebuild && !force {
		m.skipped.Add(1)
		m.setLast(plan, nil, 0)
		return plan, nil
	}
	if !m.building.CompareAndSwap(false, true) {
		return plan, ErrBusy
	}
	defer m.building.Store(false)
	t0 := time.Now()
	ix, err := flix.BuildWithOptions(m.coll, plan.Config, flix.BuildOptions{Parallelism: m.cfg.Parallelism})
	elapsed := time.Since(t0)
	if err != nil {
		m.setLast(plan, err, elapsed)
		return plan, fmt.Errorf("rebuild: %w", err)
	}
	gen := m.target.Install(ix, plan.Reason)
	m.rebuilds.Add(1)
	m.setLast(plan, nil, elapsed)
	if m.cfg.SnapshotDir != "" {
		if err := m.persist(ix, gen); err != nil && m.cfg.Logger != nil {
			// Persistence is best-effort: the swap already happened and the
			// serving path must not depend on disk health.
			m.cfg.Logger.Printf("rebuild: persisting generation %d: %v", gen, err)
		}
	}
	if m.cfg.Logger != nil {
		m.cfg.Logger.Printf("rebuild: generation %d live after %s build (%s)",
			gen, elapsed.Round(time.Millisecond), plan.Reason)
	}
	return plan, nil
}

// Run is the background loop: every Interval it replans and rebuilds when
// the workload asks for it, until ctx is done.  A tick that finds a rebuild
// already in flight (a slow manual one) is skipped, not queued.
func (m *Manager) Run(ctx context.Context) {
	if m.cfg.Interval <= 0 {
		return
	}
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			plan, err := m.Reindex(false)
			if m.cfg.Logger != nil {
				switch {
				case errors.Is(err, ErrBusy):
					m.cfg.Logger.Print("rebuild: tick skipped, rebuild in flight")
				case err != nil:
					m.cfg.Logger.Printf("rebuild: %v", err)
				case !plan.Rebuild:
					m.cfg.Logger.Printf("rebuild: keeping generation %d (%s)", plan.FromGeneration, plan.Reason)
				}
			}
		}
	}
}

func (m *Manager) setLast(p Plan, err error, build time.Duration) {
	m.mu.Lock()
	m.lastPlan, m.lastErr, m.lastBuild = p, err, build
	m.mu.Unlock()
}

// Status is the manager's reportable state for /statsz.
type Status struct {
	Building   bool   `json:"building"`
	Rebuilds   int64  `json:"rebuilds"`
	Skipped    int64  `json:"skipped"`
	LastReason string `json:"lastReason,omitempty"`
	LastError  string `json:"lastError,omitempty"`
	LastBuild  string `json:"lastBuild,omitempty"`
}

// Status snapshots the manager.
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		Building:   m.building.Load(),
		Rebuilds:   m.rebuilds.Load(),
		Skipped:    m.skipped.Load(),
		LastReason: m.lastPlan.Reason,
	}
	if m.lastErr != nil {
		st.LastError = m.lastErr.Error()
	}
	if m.lastBuild > 0 {
		st.LastBuild = m.lastBuild.Round(time.Millisecond).String()
	}
	return st
}
