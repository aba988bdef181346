// Command benchmark is the repository's one end-to-end benchmark: it
// starts real flixd servers (and a flixd-router) inside this process on
// loopback TCP, drives them with closed-loop HTTP clients from a
// seed-generated operation list, checks every answer against the BFS
// oracle, and prints each metric by name with its unit.  README.md in this
// directory explains the workloads, the metrics and how they interact.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh -seed S [-workload W] [-trace 1] [-seconds N] [-smoke]
//	bash benchmark/run.sh -selfcheck N [-seed S]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment describes where and on what a record was measured.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Docs       int    `json:"docs"`
	Elements   int    `json:"elements"`
	Links      int    `json:"links"`
	// OpsPerLap counts the operations of one lap by class; Laps and
	// TimedSeconds describe the timed phase.
	OpsPerLap    map[string]int `json:"opsPerLap"`
	Laps         int            `json:"laps"`
	TimedSeconds float64        `json:"timedSeconds"`
	Verified     int            `json:"verifiedAnswers"`
	// TailPct is the percentile tail_ms reports on this workload and
	// ErrorRate the share of timed operations that failed.
	TailPct   float64 `json:"tailPct"`
	ErrorRate float64 `json:"errorRate"`
	// LapMs lists the wall time of every timed lap, RefMs that of the
	// reference laps around them, SetupS every set-up and SetupRefMs the
	// reference laps around those, for judging noise; ClockScale put the laps'
	// timings on the reference clock and Raw holds the timings as the wall
	// clock measured them.
	LapMs      []float64          `json:"lapMs"`
	RefMs      []float64          `json:"refMs"`
	SetupS     []float64          `json:"setupS"`
	SetupRefMs []float64          `json:"setupRefMs"`
	ClockScale float64            `json:"clockScale"`
	Raw        map[string]float64 `json:"raw"`
}

// record is what a single-workload run prints before its result line.
type record struct {
	Workload string      `json:"workload"`
	Traced   bool        `json:"traced"`
	Env      environment `json:"env"`
	result
}

// options are the settings of one single-workload run.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	smoke   bool
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == refArg {
		if err := serveReference(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	var (
		name      = flag.String("workload", "", "workload to run (default: all four, one process each)")
		seed      = flag.Int64("seed", 1, "seed of the operation list")
		seconds   = flag.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes benchmark/out/trace-<workload>.json")
		smoke     = flag.Bool("smoke", false, "200-document corpus and short op lists: a quick end-to-end check, not a measurement")
		selfcheck = flag.Int("selfcheck", 0, "run the suite N times with seeds seed..seed+N-1 and judge each metric's spread against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	spec, specErr := readSpec()
	if *seconds == 0 {
		if specErr != nil {
			fatal(fmt.Errorf("-seconds not given and %w", specErr))
		}
		*seconds = float64(spec.RunSeconds)
		if *smoke {
			*seconds = 1
		}
	}
	opts := options{seed: *seed, seconds: *seconds, traced: *trace != 0, smoke: *smoke}

	switch {
	case *selfcheck > 0:
		if specErr != nil {
			fatal(specErr)
		}
		if !runSelfcheck(spec, *selfcheck, opts) {
			os.Exit(1)
		}
	case *name == "":
		ok := true
		for _, w := range workloads {
			res, err := runChild(w.name, opts, os.Stdout)
			if err != nil {
				fatal(err)
			}
			ok = ok && res.Correct
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w, found := findWorkload(*name)
		if !found {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		rec, err := runWorkload(w, opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		rec.print(os.Stdout)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// print writes the metrics by name with their units, the full record as
// one JSON line, and the result as the last line.
func (r *record) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-14s %-34s %14s %s\n", r.Workload, n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	for _, n := range []string{"ops_per_s", "p50_ms", "tail_ms", "cpu_ms_per_op", "setup_s"} {
		if v, ok := r.Env.Raw[n]; ok {
			fmt.Fprintf(w, "%-14s %-34s %14s %s\n", r.Workload, "raw."+n, strconv.FormatFloat(v, 'g', 6, 64), r.Metrics[n].Unit)
		}
	}
	fmt.Fprintf(w, "%-14s %-34s %14s ratio\n", r.Workload, "error_rate", strconv.FormatFloat(r.Env.ErrorRate, 'g', 6, 64))
	fmt.Fprintf(w, "%-14s correct=%v attempted=%d failed=%d verified=%d laps=%d timed=%.1fs tail=p%g\n",
		r.Workload, r.Correct, r.Attempted, r.Failed, r.Env.Verified, r.Env.Laps, r.Env.TimedSeconds, r.Env.TailPct)
	enc := json.NewEncoder(w)
	enc.Encode(r)        //nolint:errcheck // stdout
	enc.Encode(r.result) //nolint:errcheck // stdout
}

// setupReps is how often a run sets the stack up from nothing, half of it
// before the timed phase and half after: one build takes a fraction of a
// second and varies by more than a tenth, and the two halves are half a minute
// apart, so one burst of interference cannot reach both.
const setupReps = 10

// meter times set-ups and laps beside reference laps.
type meter struct {
	clk *clock // nil in a traced run: the per-layer metrics are raw
	// setups are the wall seconds of every set-up; setupRefs and lapRefs the
	// reference laps before, between and after the set-ups and the laps.
	setups, setupRefs, lapRefs []float64
}

func (m *meter) reference(into *[]float64) error {
	if m.clk == nil {
		return nil
	}
	s, err := m.clk.lap()
	if err != nil {
		return err
	}
	*into = append(*into, s)
	return nil
}

// setUps sets the workload's stack up n times, cold each time — nothing is
// shared between repetitions — and returns the last one.
func (m *meter) setUps(w workload, docs, n int, sl *spanLog) (*stack, error) {
	var st *stack
	if err := m.reference(&m.setupRefs); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC() // what was built before is garbage now
		t0 := time.Now()
		var err error
		if st, err = setUp(w, docs, sl); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
		if err := m.reference(&m.setupRefs); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// runWorkload is one complete run of one workload in this process.
func runWorkload(w workload, o options) (*record, error) {
	docs := fullDocs
	if o.smoke {
		docs = smokeDocs
	}
	var rec *recorder
	var m meter
	setups := setupReps
	if o.smoke {
		setups = 2 // a smoke run is a check, not a measurement
	}
	reps := setups / 2
	if o.traced {
		rec, reps = newRecorder(), 1
	} else {
		var err error
		if m.clk, err = startClock(); err != nil {
			return nil, err
		}
		defer m.clk.close()
	}

	// phase reports on standard error where the run's own time goes.
	phaseStart := time.Now()
	phase := func(name string) {
		fmt.Fprintf(os.Stderr, "benchmark: %s %s: %.2fs\n", w.name, name, time.Since(phaseStart).Seconds())
		phaseStart = time.Now()
	}

	st, err := m.setUps(w, docs, reps, rec.log())
	if err != nil {
		return nil, err
	}
	defer st.close()
	if rec != nil {
		rec.paused = true // until the traced laps
	}
	phase("set-up")

	ops := genOps(w.name, st.corpus, o.seed, o.smoke)
	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = newClient(st.front, rec.log())
		defer clients[i].close()
	}
	verified, err := st.verify(clients, ops)
	if err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	if !w.mapped {
		// The heap workloads serve no file; size the index as the raw v2
		// snapshot it would persist as.
		if err := st.writeSnapshot(io.Discard, rec.log()); err != nil {
			return nil, fmt.Errorf("sizing the index: %w", err)
		}
	}
	phase("verification")

	r := &record{Workload: w.name, Traced: o.traced}
	r.Env = environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: gitCommit(),
		Seed: o.seed, Docs: st.corpus.coll.NumDocs(), Elements: st.corpus.coll.NumNodes(), Links: st.corpus.coll.NumLinks(),
		OpsPerLap: map[string]int{}, Verified: verified, TailPct: w.tail * 100,
	}
	for _, op := range ops {
		r.Env.OpsPerLap[classNames[op.class]]++
	}
	// The publications were only needed to choose operations; a flixd holds
	// the collection and the index, and so does the measured process.
	st.corpus.pubs = nil

	// Untimed warm-up pass: caches fill, connections open, lazy state
	// settles.  Then the garbage of set-up and verification is collected and
	// goes back to the operating system, and the peak-RSS mark is reset, so
	// that rss_mb is what serving needs, not what building left behind.
	warm := st.runLap(clients, ops, quickJudge)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d operations failed, first: %w", warm.failed, warm.firstErr)
	}
	debug.FreeOSMemory()
	resetPeakRSS()
	phase("warm-up")

	var laps []lap
	if o.traced {
		r.Metrics, laps, err = st.tracedRun(clients, ops, o, rec)
		if err != nil {
			return nil, err
		}
		phase("traced measurement")
	} else {
		if err := m.reference(&m.lapRefs); err != nil {
			return nil, err
		}
		for t0 := time.Now(); len(laps) == 0 || time.Since(t0).Seconds() < o.seconds; {
			laps = append(laps, st.runLap(clients, ops, quickJudge))
			if err := m.reference(&m.lapRefs); err != nil {
				return nil, err
			}
		}
		rss := peakRSS()
		phase("measurement")

		// The second half of the set-ups, with the serving stack gone as it
		// was for the first half.
		indexBytes := st.snapshotBytes
		st.close()
		again, err := m.setUps(w, docs, setups-reps, nil)
		if err != nil {
			return nil, err
		}
		again.close()
		phase("set-up again")
		raw := endToEnd(laps, len(ops), w.tail)
		raw["setup_s"] = median(m.setups)
		lapScale, setupScale := clockScale(m.lapRefs), clockScale(m.setupRefs)
		r.Env.Raw, r.Env.ClockScale, r.Env.SetupS = raw, lapScale, m.setups
		r.Env.RefMs, r.Env.SetupRefMs = millis(m.lapRefs), millis(m.setupRefs)
		r.Metrics = map[string]metric{
			"ops_per_s":     {raw["ops_per_s"] / lapScale, "1/s"},
			"p50_ms":        {raw["p50_ms"] * lapScale, "ms"},
			"tail_ms":       {raw["tail_ms"] * lapScale, "ms"},
			"cpu_ms_per_op": {raw["cpu_ms_per_op"] * lapScale, "ms"},
			"setup_s":       {raw["setup_s"] * setupScale, "s"},
			"rss_mb":        {rss / 1e6, "MB"},
			"index_mb":      {float64(indexBytes) / 1e6, "MB"},
		}
	}
	r.Env.Laps = len(laps)
	for _, l := range laps {
		r.Env.LapMs = append(r.Env.LapMs, float64(l.wall)/1e6)
		r.Attempted += len(l.samples)
		r.Failed += l.failed
		r.Env.TimedSeconds += l.wall.Seconds()
		if l.firstErr != nil && err == nil {
			err = l.firstErr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: first failed operation:", err)
	}
	r.Correct = r.Failed == 0
	r.Env.ErrorRate = float64(r.Failed) / float64(r.Attempted)
	if !o.traced {
		r.Metrics["success_rate"] = metric{1 - r.Env.ErrorRate, "ratio"}
	}
	return r, nil
}

func millis(seconds []float64) []float64 {
	out := make([]float64, len(seconds))
	for i, s := range seconds {
		out[i] = s * 1e3
	}
	return out
}

// endToEnd derives the raw client-visible timings from the timed laps.
// Every lap is the same work, so the laps are the segments of the timed
// phase: rate and CPU are those of the median lap.  Latencies are the median
// over the laps of each lap's own percentile where a lap has the samples to
// carry the tail (ten beyond it), and percentiles over all samples otherwise.
func endToEnd(laps []lap, opsPerLap int, tail float64) map[string]float64 {
	var walls, cpus, p50s, tails []float64
	var all []int64
	perLap := supportedTail(len(laps[0].samples)) >= tail
	for _, l := range laps {
		walls = append(walls, l.wall.Seconds())
		cpus = append(cpus, float64(l.cpu)/1e6)
		ns := make([]int64, len(l.samples))
		for i, sm := range l.samples {
			ns[i] = sm.ns
		}
		if !perLap {
			all = append(all, ns...)
			continue
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		p50s = append(p50s, float64(percentile(ns, 0.50)))
		tails = append(tails, float64(percentile(ns, tail)))
	}
	if !perLap {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		p50s, tails = []float64{float64(percentile(all, 0.50))}, []float64{float64(percentile(all, tail))}
	}
	return map[string]float64{
		"ops_per_s":     float64(opsPerLap) / median(walls),
		"cpu_ms_per_op": median(cpus) / float64(opsPerLap),
		"p50_ms":        median(p50s) / 1e6,
		"tail_ms":       median(tails) / 1e6,
	}
}

// resetPeakRSS makes VmHWM start again from the current resident set.  Where
// the kernel does not allow it the mark simply stays where set-up left it.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // see above
}

// peakRSS is the process's peak resident set (VmHWM) in bytes.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb * 1024
		}
	}
	return 0
}

// gitCommit reads the checked-out commit from .git of the working
// directory without running git; a checkout without it reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(h, "ref: ")
	if !isRef {
		return h
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, ok := strings.CutSuffix(line, " "+ref); ok {
				return sha
			}
		}
	}
	return "unknown"
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads: the
// run length and each end-to-end metric's bound.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec() (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return s, fmt.Errorf("BENCHMARK.json (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if s.RunSeconds <= 0 {
		return s, errors.New("BENCHMARK.json: run_seconds missing")
	}
	return s, nil
}
