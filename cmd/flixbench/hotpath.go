package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/dblp"
	"repro/internal/flix"
	"repro/internal/obs"
)

// hotpathCase is one measured workload of the hot-path experiment.
type hotpathCase struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"nsPerOp"`
	BytesPerOp  int64  `json:"bytesPerOp"`
	AllocsPerOp int64  `json:"allocsPerOp"`
}

// hotpathResult is the machine-readable record of the hot-path experiment,
// written to BENCH_hotpath.json.  The reference-* cases run the frozen
// pre-optimization evaluator (flix.ReferenceDescendants and friends) in the
// same binary on the same collection, so the before/after comparison needs
// no cross-commit bookkeeping: the speedups are computed from numbers
// captured in the same file.
type hotpathResult struct {
	Experiment string        `json:"experiment"`
	Config     string        `json:"config"`
	Docs       int           `json:"docs"`
	Elements   int           `json:"elements"`
	Cases      []hotpathCase `json:"cases"`
	// SpeedupDescendants is reference-descendants ns/op divided by
	// descendants ns/op — the tentpole acceptance metric.
	SpeedupDescendants     float64 `json:"speedupDescendants"`
	SpeedupTypeDescendants float64 `json:"speedupTypeDescendants"`
}

// hotpathExperiment measures the allocation behaviour and latency of the
// query hot path via testing.Benchmark, compares against the frozen
// reference evaluator, and enforces the acceptance bar: zero allocs/op for
// untraced steady-state descendants on a warm scratch pool, and at least
// minSpeedup over the reference.  A violation exits nonzero so CI can gate
// on it.
func hotpathExperiment(docs int, seed int64, out string, minSpeedup float64) {
	fmt.Println("=== Hot path: steady-state allocations and latency ===")
	p := dblp.DefaultParams()
	p.Docs = docs
	p.Seed = seed
	e := bench.NewExperiment(p)
	ix, err := flix.Build(e.Coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 5000})
	if err != nil {
		log.Fatal(err)
	}
	drop := func(flix.Result) bool { return true }
	opts := flix.Options{MaxResults: 100}

	measure := func(name string, op func()) hotpathCase {
		// Warm: populates the scratch pool, HOPI's tag postings and any
		// lazily built state, so the benchmark sees the steady state.
		for i := 0; i < 3; i++ {
			op()
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
		c := hotpathCase{
			Name:        name,
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		fmt.Printf("%-28s %12d ns/op %8d B/op %6d allocs/op\n",
			c.Name, c.NsPerOp, c.BytesPerOp, c.AllocsPerOp)
		return c
	}

	cases := []hotpathCase{
		measure("descendants", func() {
			ix.Descendants(e.Start, "article", opts, drop)
		}),
		measure("descendants-traced", func() {
			o := opts
			o.Tracer = obs.NewTrace(256)
			ix.Descendants(e.Start, "article", o, drop)
		}),
		measure("type-descendants", func() {
			ix.TypeDescendants("inproceedings", "article", opts, drop)
		}),
		measure("reference-descendants", func() {
			ix.ReferenceDescendants(e.Start, "article", opts, drop)
		}),
		measure("reference-type-descendants", func() {
			ix.ReferenceTypeDescendants("inproceedings", "article", opts, drop)
		}),
	}
	byName := map[string]hotpathCase{}
	for _, c := range cases {
		byName[c.Name] = c
	}
	r := hotpathResult{
		Experiment: "hotpath",
		Config:     ix.Config().Kind.String(),
		Docs:       e.Coll.NumDocs(),
		Elements:   e.Coll.NumNodes(),
		Cases:      cases,
		SpeedupDescendants: float64(byName["reference-descendants"].NsPerOp) /
			float64(byName["descendants"].NsPerOp),
		SpeedupTypeDescendants: float64(byName["reference-type-descendants"].NsPerOp) /
			float64(byName["type-descendants"].NsPerOp),
	}
	fmt.Printf("speedup vs reference: descendants %.2fx, type-descendants %.2fx\n",
		r.SpeedupDescendants, r.SpeedupTypeDescendants)

	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)

	if a := byName["descendants"].AllocsPerOp; a != 0 {
		log.Fatalf("acceptance: untraced descendants allocated %d allocs/op, want 0", a)
	}
	if minSpeedup > 0 && r.SpeedupDescendants < minSpeedup {
		log.Fatalf("acceptance: descendants speedup %.2fx below the %.2fx bar",
			r.SpeedupDescendants, minSpeedup)
	}
	fmt.Println()
}
