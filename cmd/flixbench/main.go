// Command flixbench regenerates the evaluation of the FliX paper (§6) on
// the synthetic DBLP collection: Table 1 (index sizes), Figure 5 (time to
// return the first k results of an a//b query), the in-text result-order
// error rates, and the connection-test comparison.  EXPERIMENTS.md records
// a reference run next to the paper's numbers.
//
// Usage:
//
//	flixbench [-docs 6210] [-seed 42] [-exp all|table1|figure5|errors|conn|scale|hetero]
//
// The scale and hetero experiments go beyond the paper's evaluation and
// cover its §7 future work: scalability with growing collections and
// adaptivity on a heterogeneous collection (deep trees + citations + a
// densely linked Web-like region).  Performance of the serving stack is not
// measured here: BENCHMARK.json and benchmark/ are the one place for that.
package main

import (
	"flag"
	"fmt"
	"log"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/dblp"
	"repro/internal/flix"
	"repro/internal/xmlgraph"
)

// paperExperiments are what -exp all runs; extraExperiments (§7) build
// their own collections and run only when named.
var (
	paperExperiments = []string{"table1", "figure5", "errors", "conn"}
	extraExperiments = []string{"scale", "hetero"}
)

// selectExperiments resolves the -exp flag to the experiments to run.
func selectExperiments(exp string) ([]string, error) {
	if exp == "all" {
		return paperExperiments, nil
	}
	if slices.Contains(paperExperiments, exp) || slices.Contains(extraExperiments, exp) {
		return []string{exp}, nil
	}
	return nil, fmt.Errorf("unknown -exp %q; valid: all %s %s", exp,
		strings.Join(paperExperiments, " "), strings.Join(extraExperiments, " "))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("flixbench: ")
	docs := flag.Int("docs", 6210, "number of publication documents (paper: 6210)")
	seed := flag.Int64("seed", 42, "generator seed")
	exp := flag.String("exp", "all", "experiment: all | table1 | figure5 | errors | conn | scale | hetero")
	pairs := flag.Int("pairs", 200, "connection-test pairs")
	closure := flag.Bool("closure", false, "also build the full transitive closure as the Table 1 size reference (slow)")
	flag.Parse()

	names, err := selectExperiments(*exp)
	if err != nil {
		log.Fatal(err)
	}
	switch names[0] {
	case "scale":
		scaleExperiment(*seed)
		return
	case "hetero":
		heteroExperiment(*seed)
		return
	}

	p := dblp.DefaultParams()
	p.Docs = *docs
	p.Seed = *seed
	fmt.Printf("generating collection (docs=%d seed=%d)...\n", p.Docs, p.Seed)
	e := bench.NewExperiment(p)
	st := xmlgraph.ComputeStats(e.Coll)
	fmt.Printf("collection: %d documents, %d elements, %d links (paper: 6210 / 168991 / 25368)\n\n",
		st.Docs, st.Nodes, st.Links)

	fmt.Println("building all strategies...")
	built, err := e.BuildAll(bench.PaperStrategies())
	if err != nil {
		log.Fatal(err)
	}

	for _, name := range names {
		switch name {
		case "table1":
			table1(e, built, *closure)
		case "figure5":
			figure5(e, built)
		case "errors":
			errorRates(e, built)
		case "conn":
			connTest(e, built, *pairs)
		}
	}
}

// scaleExperiment measures build time, size and query time as the
// collection grows (§7: "test the scalability of FliX with larger sets of
// documents").
func scaleExperiment(seed int64) {
	fmt.Println("=== Scalability: collection size sweep ===")
	fmt.Printf("%8s %10s | %12s %12s %10s | %12s %12s %10s\n",
		"docs", "elements", "hybrid-build", "hybrid-size", "hybrid-q100",
		"hopi-build", "hopi-size", "hopi-q100")
	for _, docs := range []int{1000, 2000, 4000, 6210, 12420} {
		p := dblp.DefaultParams()
		p.Docs = docs
		p.Seed = seed
		e := bench.NewExperiment(p)
		row := fmt.Sprintf("%8d %10d |", docs, e.Coll.NumNodes())
		for _, en := range []bench.Entry{
			{Label: "hybrid", Config: flix.Config{Kind: flix.Hybrid, PartitionSize: 5000}},
			{Label: "hopi", Config: flix.Config{Kind: flix.Monolithic, Strategy: "hopi"}},
		} {
			built, err := e.BuildAll([]bench.Entry{en})
			if err != nil {
				log.Fatal(err)
			}
			sz, err := built[0].Index.SizeBytes()
			if err != nil {
				log.Fatal(err)
			}
			bench.QueryTimeSeries(built[0], e.Start, "article", 100) // warm
			ts := bench.QueryTimeSeries(built[0], e.Start, "article", 100)
			row += fmt.Sprintf(" %12s %12s %10s |",
				built[0].BuildTime.Round(time.Millisecond),
				bench.FormatBytes(sz), ts.Total.Round(time.Microsecond))
		}
		fmt.Println(row)
	}
	fmt.Println()
}

// heteroExperiment measures adaptivity on a mixed collection (§7: "test
// the adaptivity of FliX with more heterogeneous document collections"):
// the Hybrid configuration should assign different strategies to different
// regions and be competitive in each, where single-strategy configurations
// win only on "their" region.
func heteroExperiment(seed int64) {
	fmt.Println("=== Adaptivity: heterogeneous collection ===")
	m := bench.MixedCollection(seed, 2)
	fmt.Println("collection:", xmlgraph.ComputeStats(m.Coll))
	for _, r := range m.Regions {
		fmt.Printf("  region %-16s docs %d..%d\n", r.Name, r.FirstDoc, r.LastDoc-1)
	}
	fmt.Println()
	entries := []bench.Entry{
		{Label: "PPO-naive", Config: flix.Config{Kind: flix.Naive}},
		{Label: "MaximalPPO", Config: flix.Config{Kind: flix.MaximalPPO}},
		{Label: "HOPI-5000", Config: flix.Config{Kind: flix.UnconnectedHOPI, PartitionSize: 5000}},
		{Label: "Hybrid", Config: flix.Config{Kind: flix.Hybrid, PartitionSize: 5000}},
		{Label: "ElementLevel", Config: flix.Config{Kind: flix.ElementLevel, PartitionSize: 5000}},
		{Label: "HOPI", Config: flix.Config{Kind: flix.Monolithic, Strategy: "hopi"}},
	}
	fmt.Printf("%-14s %10s %10s %-28s", "config", "build", "size", "strategies")
	for _, r := range m.Regions {
		fmt.Printf(" %14s", r.Name)
	}
	fmt.Println()
	for _, en := range entries {
		t0 := time.Now()
		ix, err := flix.Build(m.Coll, en.Config)
		if err != nil {
			log.Fatal(err)
		}
		buildTime := time.Since(t0)
		sz, err := ix.SizeBytes()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10s %10s %-28s", en.Label,
			buildTime.Round(time.Millisecond), bench.FormatBytes(sz), formatCounts(ix.StrategyCounts()))
		for _, r := range m.Regions {
			// Warm, then time a bounded per-region query.
			runQ := func() time.Duration {
				t0 := time.Now()
				n := 0
				ix.Descendants(r.Start, r.Tag, flix.Options{MaxResults: 100}, func(flix.Result) bool {
					n++
					return true
				})
				return time.Since(t0)
			}
			runQ()
			fmt.Printf(" %14s", runQ().Round(time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Println()
}

// formatCounts renders a strategy-count map compactly ("ppo×803 hopi×5").
func formatCounts(counts map[string]int) string {
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s×%d", n, counts[n])
	}
	return s
}

func table1(e *bench.Experiment, built []bench.Built, closure bool) {
	fmt.Println("=== Table 1: index sizes ===")
	rows, err := bench.IndexSizes(built)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatSizeTable(rows))
	if !closure {
		fmt.Println("(run with -closure to add the transitive-closure size reference)")
		fmt.Println()
		return
	}
	// The transitive-closure reference point: the paper notes HOPI stays
	// more than an order of magnitude below the closure.
	fmt.Println("building transitive closure for reference (this is the expensive baseline)...")
	t0 := time.Now()
	// internal/bench registers "tc"; it is not a strategy flixd can be given.
	tcIx, err := flix.Build(e.Coll, flix.Config{Kind: flix.Monolithic, Strategy: "tc"})
	if err != nil {
		log.Fatal(err)
	}
	sz, err := tcIx.SizeBytes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %12s %12s %6d\n\n", "closure", bench.FormatBytes(sz),
		time.Since(t0).Round(time.Millisecond), 1)
}

func figure5(e *bench.Experiment, built []bench.Built) {
	fmt.Println("=== Figure 5: time to return the first k results of start//article ===")
	fmt.Printf("start element: %s\n", e.Corpus.Pubs[e.Corpus.HubIndex].Key)
	counts := []int{1, 2, 5, 10, 20, 50, 100}
	var series []bench.TimeSeries
	for _, b := range built {
		// Warm run first: the paper's DB-backed setup reports warm
		// caches too; this also populates HOPI's per-tag postings.
		bench.QueryTimeSeries(b, e.Start, "article", 100)
		series = append(series, bench.QueryTimeSeries(b, e.Start, "article", 100))
	}
	fmt.Print(bench.FormatFigure5(series, counts))
	fmt.Println()

	fmt.Println("same query, all results:")
	var all []bench.TimeSeries
	for _, b := range built {
		all = append(all, bench.QueryTimeSeries(b, e.Start, "article", 0))
	}
	fmt.Print(bench.FormatFigure5(all, []int{1, 100, 1000}))
	fmt.Println()
}

func errorRates(e *bench.Experiment, built []bench.Built) {
	fmt.Println("=== Result-order error rates (paper: HOPI-5000 8.2%, HOPI-20000 10.4%, MaximalPPO 13.3%) ===")
	oracle := bench.OracleDistances(e.Coll, e.Start, "article")
	for _, b := range built {
		ts := bench.QueryTimeSeries(b, e.Start, "article", 0)
		rate := bench.ErrorRate(ts.Results, oracle)
		fmt.Printf("%-12s %6.1f%%  (%d results)\n", b.Entry.Label, 100*rate, len(ts.Results))
	}
	fmt.Println()
}

func connTest(e *bench.Experiment, built []bench.Built, pairs int) {
	fmt.Println("=== Connection tests ===")
	fmt.Printf("%-12s %8s %10s %14s %14s\n", "index", "pairs", "connected", "forward", "bidirectional")
	for _, b := range built {
		row := bench.ConnectionTest(b, e.Coll, e.Start, pairs)
		fmt.Printf("%-12s %8d %10d %14s %14s\n", row.Label, row.Pairs, row.Connected,
			row.Forward.Round(time.Microsecond), row.Bidirectional.Round(time.Microsecond))
	}
	fmt.Println()
}
