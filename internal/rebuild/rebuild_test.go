package rebuild

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flix"
	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// fakeTarget is a minimal Target: a settable index, a generation counter,
// and a scripted latency snapshot.
type fakeTarget struct {
	mu       sync.Mutex
	ix       *flix.Index
	gen      uint64
	lat      map[string]obs.HistSnapshot
	installs []string // reasons, in order
}

func (f *fakeTarget) CurrentIndex() *flix.Index {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ix
}

func (f *fakeTarget) Generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

func (f *fakeTarget) StrategyLatency() map[string]obs.HistSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lat
}

func (f *fakeTarget) Install(ix *flix.Index, reason string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ix = ix
	f.gen++
	f.installs = append(f.installs, reason)
	return f.gen
}

// testCollection returns a small frozen linked collection.
func testCollection(t *testing.T) *xmlgraph.Collection {
	t.Helper()
	return testutil.Generate(testutil.Linked, 7, 20, 15, 40)
}

// drive runs n distinct descendants queries so the index accumulates
// QueryStats.
func drive(ix *flix.Index, n int) {
	tags := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < n; i++ {
		start := xmlgraph.NodeID(i % 20)
		ix.Descendants(start, tags[i%len(tags)], flix.Options{}, func(flix.Result) bool { return true })
	}
}

// hist returns a HistSnapshot of n observations at d each.
func hist(n int, d time.Duration) obs.HistSnapshot {
	var h obs.Histogram
	for i := 0; i < n; i++ {
		h.Observe(d)
	}
	return h.Snapshot()
}

func TestPlanNoIndex(t *testing.T) {
	m := New(testCollection(t), &fakeTarget{}, Config{})
	plan := m.Plan()
	if plan.Rebuild {
		t.Error("Plan with no index wants a rebuild")
	}
	if !strings.Contains(plan.Reason, "no index") {
		t.Errorf("reason = %q, want a no-index explanation", plan.Reason)
	}
}

func TestPlanMinQueriesGate(t *testing.T) {
	coll := testCollection(t)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	ft := &fakeTarget{ix: ix, gen: 1}
	m := New(coll, ft, Config{MinQueries: 30})
	drive(ix, 5)
	plan := m.Plan()
	if plan.Rebuild {
		t.Error("Plan below MinQueries wants a rebuild")
	}
	if plan.Queries != 5 {
		t.Errorf("plan.Queries = %d, want 5", plan.Queries)
	}
	if plan.FromGeneration != 1 {
		t.Errorf("plan.FromGeneration = %d, want 1", plan.FromGeneration)
	}
	if !strings.Contains(plan.Reason, "not enough signal") {
		t.Errorf("reason = %q, want the min-queries explanation", plan.Reason)
	}
	// The planned config must be the current one so a forced rebuild
	// re-optimizes in place.
	if plan.Config != ix.Config() {
		t.Errorf("plan.Config = %+v, want current %+v", plan.Config, ix.Config())
	}
}

func TestStrategyOverride(t *testing.T) {
	coll := testCollection(t)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	ft := &fakeTarget{ix: ix, gen: 1}
	m := New(coll, ft, Config{MinQueries: 20})

	// Not enough histogram samples: no override regardless of skew.
	ft.lat = map[string]obs.HistSnapshot{
		"ppo":  hist(5, time.Microsecond),
		"hopi": hist(5, 50*time.Millisecond),
	}
	if name, _ := m.strategyOverride(); name != "" {
		t.Errorf("override below MinQueries = %q, want none", name)
	}

	// A slow strategy with a meaningful share: prefer the fast one.
	ft.lat = map[string]obs.HistSnapshot{
		"ppo":  hist(60, time.Microsecond),
		"hopi": hist(40, 50*time.Millisecond),
	}
	name, why := m.strategyOverride()
	if name != "ppo" {
		t.Fatalf("override = %q, want ppo (%s)", name, why)
	}
	if !strings.Contains(why, `"hopi"`) || !strings.Contains(why, `"ppo"`) {
		t.Errorf("override reason %q does not name both strategies", why)
	}

	// The skew exists but the slow strategy carries < 10% of requests:
	// not worth rebuilding for.
	ft.lat = map[string]obs.HistSnapshot{
		"ppo":  hist(1000, time.Microsecond),
		"hopi": hist(3, 50*time.Millisecond),
	}
	if name, _ := m.strategyOverride(); name != "" {
		t.Errorf("override for a <10%% share = %q, want none", name)
	}

	// A full Plan with the skewed histograms flips Rebuild on and carries
	// the override into the config.
	ft.lat = map[string]obs.HistSnapshot{
		"ppo":  hist(60, time.Microsecond),
		"hopi": hist(40, 50*time.Millisecond),
	}
	drive(ix, 25)
	plan := m.Plan()
	if !plan.Rebuild {
		t.Fatalf("plan with latency skew keeps the index: %s", plan.Reason)
	}
	if plan.StrategyOverride != "ppo" || plan.Config.Strategy != "ppo" {
		t.Errorf("plan override = %q / config strategy = %q, want ppo/ppo",
			plan.StrategyOverride, plan.Config.Strategy)
	}
}

// TestPlanAdvisePassthrough checks the planner adopts the engine's own
// Advise verdict: a small-partition index on a link-heavy collection keeps
// crossing meta-document boundaries, so the plan proposes the enlarged
// partitioning and an unforced Reindex executes it.
func TestPlanAdvisePassthrough(t *testing.T) {
	coll := testCollection(t)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	ft := &fakeTarget{ix: ix, gen: 1}
	m := New(coll, ft, Config{MinQueries: 5})
	drive(ix, 10)
	plan := m.Plan()
	if !plan.Rebuild {
		t.Fatalf("link-heavy load kept the index: %s", plan.Reason)
	}
	if plan.Config.PartitionSize <= 60 {
		t.Errorf("advised partition size = %d, want > 60", plan.Config.PartitionSize)
	}
	if _, err := m.Reindex(false); err != nil {
		t.Fatal(err)
	}
	if len(ft.installs) != 1 {
		t.Fatalf("unforced reindex with rebuild-worthy load installed %d generations, want 1", len(ft.installs))
	}
	if got := ft.CurrentIndex().Config().PartitionSize; got != plan.Config.PartitionSize {
		t.Errorf("installed partition size = %d, want advised %d", got, plan.Config.PartitionSize)
	}
}

func TestReindexForceInstalls(t *testing.T) {
	coll := testCollection(t)
	// Monolithic: every query stays inside the single meta document, so
	// Advise never asks for a rebuild and the skip path is deterministic.
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Monolithic})
	if err != nil {
		t.Fatal(err)
	}
	ft := &fakeTarget{ix: ix, gen: 1}
	m := New(coll, ft, Config{MinQueries: 5})
	drive(ix, 10)

	// Without force and without a rebuild-worthy load, nothing happens.
	plan, err := m.Reindex(false)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rebuild || len(ft.installs) != 0 {
		t.Fatalf("unforced reindex installed %d generations (plan %+v)", len(ft.installs), plan)
	}
	if st := m.Status(); st.Skipped != 1 || st.Rebuilds != 0 {
		t.Errorf("status after skip = %+v, want skipped=1 rebuilds=0", st)
	}

	// Forced: a fresh index with the planned config is built and installed.
	if _, err := m.Reindex(true); err != nil {
		t.Fatal(err)
	}
	if len(ft.installs) != 1 {
		t.Fatalf("forced reindex installed %d generations, want 1", len(ft.installs))
	}
	if ft.CurrentIndex() == ix {
		t.Error("forced reindex reinstalled the same *Index")
	}
	if got := ft.CurrentIndex().Config(); got != ix.Config() {
		t.Errorf("forced rebuild config = %+v, want unchanged %+v", got, ix.Config())
	}
	st := m.Status()
	if st.Rebuilds != 1 || st.Building {
		t.Errorf("status after rebuild = %+v, want rebuilds=1 building=false", st)
	}
	if st.LastBuild == "" {
		t.Error("status.LastBuild empty after a build")
	}
}

func TestReindexBusy(t *testing.T) {
	coll := testCollection(t)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Naive})
	if err != nil {
		t.Fatal(err)
	}
	m := New(coll, &fakeTarget{ix: ix, gen: 1}, Config{MinQueries: 1})
	drive(ix, 3)
	m.building.Store(true) // simulate a rebuild in flight
	if _, err := m.Reindex(true); !errors.Is(err, ErrBusy) {
		t.Fatalf("Reindex while building = %v, want ErrBusy", err)
	}
	m.building.Store(false)
	if _, err := m.Reindex(true); err != nil {
		t.Fatalf("Reindex after the build finished: %v", err)
	}
}

func TestPersistRetentionAndLatest(t *testing.T) {
	coll := testCollection(t)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m := New(coll, &fakeTarget{ix: ix}, Config{SnapshotDir: dir, Retain: 2})
	for gen := uint64(1); gen <= 5; gen++ {
		if err := m.persist(ix, gen); err != nil {
			t.Fatalf("persist gen %d: %v", gen, err)
		}
	}
	matches, err := filepath.Glob(filepath.Join(dir, "gen-*.flix"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("retained %d snapshots %v, want 2", len(matches), matches)
	}
	latest, err := LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(latest) != SnapshotName(5) {
		t.Errorf("LatestSnapshot = %s, want %s", latest, SnapshotName(5))
	}
	// The retained snapshot must warm-start, mapped and unmapped, into an
	// index that answers exactly like the live one.
	answers := func(ix *flix.Index) string {
		var b strings.Builder
		for x := xmlgraph.NodeID(0); int(x) < coll.NumNodes(); x++ {
			ix.Descendants(x, "", flix.Options{ExactOrder: true}, func(r flix.Result) bool {
				fmt.Fprintf(&b, "%d:%d;", r.Node, r.Dist)
				return true
			})
			d, ok := ix.Connected(0, x, 0)
			fmt.Fprintf(&b, "|%d,%t\n", d, ok)
		}
		return b.String()
	}
	want := answers(ix)
	for _, mmap := range []bool{true, false} {
		ix2, err := flix.OpenSnapshotWith(coll, latest, flix.OpenOptions{Mmap: mmap})
		if err != nil {
			t.Fatalf("opening persisted generation (mmap=%t): %v", mmap, err)
		}
		if ix2.Config() != ix.Config() {
			t.Errorf("restored config = %+v, want %+v", ix2.Config(), ix.Config())
		}
		if got := answers(ix2); got != want {
			t.Errorf("mmap=%t: the persisted generation answers differently from the live index", mmap)
		}
		if err := ix2.Close(); err != nil {
			t.Error(err)
		}
	}
	// No temp files left behind.
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
		t.Errorf("temp files left behind: %v", tmp)
	}
}

func TestLatestSnapshotEmpty(t *testing.T) {
	path, err := LatestSnapshot(t.TempDir())
	if err != nil || path != "" {
		t.Errorf("LatestSnapshot(empty) = %q, %v; want \"\", nil", path, err)
	}
}

func TestRunDisabledAndTicking(t *testing.T) {
	coll := testCollection(t)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	ft := &fakeTarget{ix: ix, gen: 1}

	// Interval <= 0: Run returns immediately even with a live context.
	done := make(chan struct{})
	go func() {
		New(coll, ft, Config{}).Run(context.Background())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run with Interval 0 did not return")
	}

	// A ticking loop replans; with a steady index it keeps skipping and
	// stops when the context is canceled.
	drive(ix, 20)
	m := New(coll, ft, Config{Interval: 5 * time.Millisecond, MinQueries: 10})
	ctx, cancel := context.WithCancel(context.Background())
	done = make(chan struct{})
	go func() {
		m.Run(ctx)
		close(done)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for m.Status().Skipped+m.Status().Rebuilds == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop on context cancel")
	}
	if st := m.Status(); st.Skipped+st.Rebuilds == 0 {
		t.Error("ticking Run never made a decision")
	}
}
