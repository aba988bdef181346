package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
)

// runChild runs one workload in a process of its own — peak RSS is a
// per-process number, and a fresh heap keeps workloads from disturbing
// each other — copies its output to w and returns its record.
func runChild(workload string, o options, w io.Writer) (record, error) {
	var rec record
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
	}
	if o.traced {
		args = append(args, "-trace", "1")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, w)
	if err := cmd.Run(); err != nil {
		return rec, fmt.Errorf("%s: %w", workload, err)
	}
	// The record is the line before the result line.
	var lines [][]byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, bytes.Clone(sc.Bytes()))
		}
	}
	if len(lines) < 2 {
		return rec, fmt.Errorf("%s: no record in the output", workload)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &rec); err != nil {
		return rec, fmt.Errorf("%s: record line: %w", workload, err)
	}
	return rec, nil
}

// noiseRow is one metric of one workload across the selfcheck's runs.
type noiseRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Min      float64   `json:"min"`
	Median   float64   `json:"median"`
	Max      float64   `json:"max"`
	// Range is (max−min)/median, the figure ISSUE 12 holds against the
	// bound; Spread is the interquartile range over the median, the figure
	// the driver holds against it.
	Range  float64 `json:"range"`
	Spread float64 `json:"spread"`
	// Bound is 0 for the rows that are not gated: the raw.* timings as the
	// wall clock measured them, beside the gated ones on the reference clock.
	Bound  float64 `json:"bound"`
	Within bool    `json:"within"`
}

// runSelfcheck runs the whole suite n times on this build, with seeds
// seed..seed+n-1 as the driver does, and reports per workload and metric how
// far the runs disagree.  It passes when every gated metric's range and
// spread are both within its bound.
func runSelfcheck(spec benchSpec, n int, o options) bool {
	if n < 2 {
		n = 2
	}
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		run := o
		run.seed = o.seed + int64(i)
		for _, w := range workloads {
			rec, err := runChild(w.name, run, io.Discard)
			if err != nil {
				fatal(err)
			}
			if !rec.Correct {
				fatal(fmt.Errorf("%s seed %d: %d of %d operations failed", w.name, run.seed, rec.Failed, rec.Attempted))
			}
			for name, m := range rec.Metrics {
				values[key{w.name, name}] = append(values[key{w.name, name}], m.Value)
				units[name] = m.Unit
			}
			for name, v := range rec.Env.Raw {
				values[key{w.name, "raw." + name}] = append(values[key{w.name, "raw." + name}], v)
				units["raw."+name] = units[name]
			}
			fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d %s done\n", i+1, n, w.name)
		}
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var rows []noiseRow
	for k, vs := range values {
		row := noiseRow{Workload: k.workload, Metric: k.metric, Unit: units[k.metric], Values: vs, Bound: bounds[k.metric]}
		row.Median = median(vs)
		row.Min, row.Max = slices.Min(vs), slices.Max(vs)
		row.Range = ratio(row.Max-row.Min, row.Median)
		row.Spread = spread(vs)
		_, gated := bounds[k.metric]
		row.Within = !gated || (row.Range <= row.Bound && row.Spread <= row.Bound)
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		return rows[i].Metric < rows[j].Metric
	})
	ok := true
	fmt.Printf("%-14s %-18s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "min", "median", "max", "range", "spread", "bound")
	for _, r := range rows {
		verdict := ""
		if !r.Within {
			verdict, ok = "  EXCEEDS", false
		}
		fmt.Printf("%-14s %-18s %12.5g %12.5g %12.5g %8.4f %8.4f %6.3g%s\n",
			r.Workload, r.Metric, r.Min, r.Median, r.Max, r.Range, r.Spread, r.Bound, verdict)
	}
	json.NewEncoder(os.Stdout).Encode(map[string]any{"runs": n, "seed": o.seed, "seconds": o.seconds, "rows": rows}) //nolint:errcheck // stdout
	return ok
}
