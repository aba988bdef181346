// Package bench is the experiment harness that regenerates the evaluation
// of the FliX paper (§6): Table 1 (index sizes), Figure 5 (time to return
// the first k results of an a//b query), the in-text result-order error
// rates, and the connection-test trend.  DESIGN.md §2 maps each experiment
// to its entry point here; cmd/flixbench and the root bench_test.go drive
// them.
package bench

import (
	"fmt"
	"time"

	"repro/internal/dblp"
	"repro/internal/flix"
	"repro/internal/meta"
	"repro/internal/tc"
	"repro/internal/xmlgraph"
)

// The transitive closure is Table 1's size reference (flixbench -closure)
// and far too large to serve, so meta.Registry does not list it: the harness
// registers it for Config{Strategy: "tc"}.
func init() { meta.Registry["tc"] = tc.Strategy }

// Entry pairs a display label with a framework configuration.
type Entry struct {
	Label  string
	Config flix.Config
}

// PaperStrategies returns the six competitors of the paper's evaluation in
// Table 1 order: monolithic HOPI and APEX applied to the whole collection,
// plus four FliX configurations.
func PaperStrategies() []Entry {
	return []Entry{
		{Label: "HOPI", Config: flix.Config{Kind: flix.Monolithic, Strategy: "hopi"}},
		{Label: "APEX", Config: flix.Config{Kind: flix.Monolithic, Strategy: "apex"}},
		{Label: "PPO-naive", Config: flix.Config{Kind: flix.Naive}},
		{Label: "HOPI-5000", Config: flix.Config{Kind: flix.UnconnectedHOPI, PartitionSize: 5000}},
		{Label: "HOPI-20000", Config: flix.Config{Kind: flix.UnconnectedHOPI, PartitionSize: 20000}},
		{Label: "MaximalPPO", Config: flix.Config{Kind: flix.MaximalPPO}},
	}
}

// Experiment holds the dataset shared by all experiment runs.
type Experiment struct {
	Params dblp.Params
	Corpus *dblp.Collection
	Coll   *xmlgraph.Collection
	// Start is the query start element (the ARIES-paper stand-in).
	Start xmlgraph.NodeID
}

// NewExperiment generates the synthetic DBLP collection.
func NewExperiment(p dblp.Params) *Experiment {
	corpus := dblp.Generate(p)
	coll := corpus.BuildGraph()
	return &Experiment{
		Params: p,
		Corpus: corpus,
		Coll:   coll,
		Start:  corpus.Hub(coll),
	}
}

// BuildAll builds every strategy's index, returning them alongside build
// times.
func (e *Experiment) BuildAll(entries []Entry) ([]Built, error) {
	out := make([]Built, 0, len(entries))
	for _, en := range entries {
		t0 := time.Now()
		ix, err := flix.Build(e.Coll, en.Config)
		if err != nil {
			return nil, fmt.Errorf("bench: building %s: %w", en.Label, err)
		}
		out = append(out, Built{Entry: en, Index: ix, BuildTime: time.Since(t0)})
	}
	return out, nil
}

// Built is one constructed competitor.
type Built struct {
	Entry     Entry
	Index     *flix.Index
	BuildTime time.Duration
}

// SizeRow is one row of Table 1.
type SizeRow struct {
	Label     string
	Bytes     int64
	BuildTime time.Duration
	MetaDocs  int
}

// IndexSizes measures the serialized size of every built index (Table 1).
func IndexSizes(built []Built) ([]SizeRow, error) {
	rows := make([]SizeRow, 0, len(built))
	for _, b := range built {
		n, err := b.Index.SizeBytes()
		if err != nil {
			return nil, fmt.Errorf("bench: sizing %s: %w", b.Entry.Label, err)
		}
		rows = append(rows, SizeRow{
			Label:     b.Entry.Label,
			Bytes:     n,
			BuildTime: b.BuildTime,
			MetaDocs:  b.Index.NumMetaDocuments(),
		})
	}
	return rows, nil
}

// TimeSeries records, for one strategy, the elapsed time until the k-th
// result of a query was delivered (Figure 5's y-axis over its x-axis).
type TimeSeries struct {
	Label string
	// At[k] is the elapsed time when result k+1 arrived.
	At      []time.Duration
	Total   time.Duration
	Results []flix.Result
}

// QueryTimeSeries runs start//tag on one built index, recording arrival
// times of the first maxResults results (0 = all).
func QueryTimeSeries(b Built, start xmlgraph.NodeID, tag string, maxResults int) TimeSeries {
	ts := TimeSeries{Label: b.Entry.Label}
	t0 := time.Now()
	b.Index.Descendants(start, tag, flix.Options{MaxResults: maxResults}, func(r flix.Result) bool {
		ts.At = append(ts.At, time.Since(t0))
		ts.Results = append(ts.Results, r)
		return true
	})
	ts.Total = time.Since(t0)
	return ts
}

// Sample returns the elapsed times at the given result counts (1-based),
// padding with the final time when the query returned fewer results.
func (ts TimeSeries) Sample(counts []int) []time.Duration {
	out := make([]time.Duration, len(counts))
	for i, k := range counts {
		switch {
		case len(ts.At) == 0:
			out[i] = ts.Total
		case k-1 < len(ts.At):
			out[i] = ts.At[k-1]
		default:
			out[i] = ts.At[len(ts.At)-1]
		}
	}
	return out
}

// ErrorRate measures the fraction of results returned in wrong order (§6):
// a result is counted when its true distance is smaller than that of the
// result delivered immediately before it — it should have come earlier.
// trueDist maps every result node to its exact distance from the start.
func ErrorRate(results []flix.Result, trueDist map[xmlgraph.NodeID]int32) float64 {
	if len(results) == 0 {
		return 0
	}
	wrong := 0
	prev := int32(-1)
	for _, r := range results {
		d, ok := trueDist[r.Node]
		if !ok {
			wrong++ // spurious result: certainly wrong
			continue
		}
		if prev >= 0 && d < prev {
			wrong++
		}
		prev = d
	}
	return float64(wrong) / float64(len(results))
}

// OracleDistances computes the exact distance of every tag-matching
// descendant of start — the ground truth for ErrorRate.
func OracleDistances(c *xmlgraph.Collection, start xmlgraph.NodeID, tag string) map[xmlgraph.NodeID]int32 {
	out := make(map[xmlgraph.NodeID]int32)
	for _, nd := range c.DescendantsByTag(start, tag) {
		out[nd.Node] = nd.Dist
	}
	return out
}

// ConnRow is one measurement of the connection-test experiment.
type ConnRow struct {
	Label         string
	Pairs         int
	Connected     int
	Forward       time.Duration // total time, forward-only search
	Bidirectional time.Duration // total time, bidirectional search
}

// ConnectionTest samples pairs (start element, one of its descendants or a
// random element) and measures connection-test time per strategy.
func ConnectionTest(b Built, c *xmlgraph.Collection, start xmlgraph.NodeID, pairs int) ConnRow {
	row := ConnRow{Label: b.Entry.Label, Pairs: pairs}
	// Deterministic pair choice: descendants of start (hits) interleaved
	// with stride-spaced elements (mostly misses).
	desc := c.Descendants(start)
	targets := make([]xmlgraph.NodeID, 0, pairs)
	for i := 0; i < pairs; i++ {
		if i%2 == 0 && len(desc) > 0 {
			targets = append(targets, desc[(i/2*37)%len(desc)])
		} else {
			targets = append(targets, xmlgraph.NodeID((i*104729)%c.NumNodes()))
		}
	}
	// The client derives relevance from path length (§5.2), so a modest
	// threshold is realistic — beyond it the pair would score near zero.
	const maxDist = 12
	t0 := time.Now()
	for _, tgt := range targets {
		if _, ok := b.Index.Connected(start, tgt, maxDist); ok {
			row.Connected++
		}
	}
	row.Forward = time.Since(t0)
	t0 = time.Now()
	for _, tgt := range targets {
		b.Index.ConnectedBidirectional(start, tgt, maxDist)
	}
	row.Bidirectional = time.Since(t0)
	return row
}

// FormatBytes renders a byte count the way the paper's Table 1 does (MB
// with one decimal).
func FormatBytes(n int64) string {
	return fmt.Sprintf("%.2f MB", float64(n)/(1024*1024))
}

// FormatSizeTable renders Table 1.
func FormatSizeTable(rows []SizeRow) string {
	s := fmt.Sprintf("%-12s %12s %12s %6s\n", "index", "size", "build", "metas")
	for _, r := range rows {
		s += fmt.Sprintf("%-12s %12s %12s %6d\n",
			r.Label, FormatBytes(r.Bytes), r.BuildTime.Round(time.Millisecond), r.MetaDocs)
	}
	return s
}

// FormatFigure5 renders the Figure 5 series: one row per strategy, elapsed
// time at the sampled result counts.
func FormatFigure5(series []TimeSeries, counts []int) string {
	s := fmt.Sprintf("%-12s", "index")
	for _, k := range counts {
		s += fmt.Sprintf(" %9s", fmt.Sprintf("@%d", k))
	}
	s += fmt.Sprintf(" %9s %8s\n", "total", "results")
	for _, ts := range series {
		s += fmt.Sprintf("%-12s", ts.Label)
		for _, d := range ts.Sample(counts) {
			s += fmt.Sprintf(" %9s", d.Round(time.Microsecond))
		}
		s += fmt.Sprintf(" %9s %8d\n", ts.Total.Round(time.Microsecond), len(ts.Results))
	}
	return s
}
