// Benchmarks regenerating the evaluation of the FliX paper (§6), one per
// table/figure, plus ablations of the design decisions in DESIGN.md §4.
// The dataset is the synthetic DBLP collection at full paper scale (6,210
// documents); set FLIX_BENCH_DOCS to shrink it for quick runs.
//
//	go test -bench=. -benchmem
//
// Reported custom metrics: bytes-of-index and meta-documents for Table 1,
// error-rate for the order experiment, label-entries for the HOPI cover
// ablation.
package flix_test

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"testing"

	flix "repro"
	"repro/internal/bench"
	"repro/internal/dblp"
	iflix "repro/internal/flix"
	"repro/internal/hopi"
	"repro/internal/lgraph"
	"repro/internal/meta"
	"repro/internal/query"
	"repro/internal/xmlgraph"
)

// The divide-and-conquer HOPI build is an ablation (DESIGN.md §4.1), not a
// strategy meta.Registry serves.
func init() { meta.Registry["hopi-dc"] = hopi.DCStrategy(20000) }

var (
	expOnce sync.Once
	exp     *bench.Experiment

	builtMu sync.Mutex
	builtBy map[string]bench.Built
)

// experiment lazily generates the shared collection.
func experiment(tb testing.TB) *bench.Experiment {
	expOnce.Do(func() {
		docs := 6210
		if s := os.Getenv("FLIX_BENCH_DOCS"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				docs = v
			}
		}
		exp = bench.NewExperiment(dblp.Scaled(docs))
		builtBy = make(map[string]bench.Built)
	})
	return exp
}

// built lazily builds one strategy and caches it across benchmarks.
func built(tb testing.TB, e bench.Entry) bench.Built {
	ex := experiment(tb)
	builtMu.Lock()
	defer builtMu.Unlock()
	if b, ok := builtBy[e.Label]; ok {
		return b
	}
	bs, err := ex.BuildAll([]bench.Entry{e})
	if err != nil {
		tb.Fatal(err)
	}
	builtBy[e.Label] = bs[0]
	return bs[0]
}

// BenchmarkTable1IndexSizes regenerates Table 1: per strategy, the build
// time is the benchmark time and the serialized size is reported as
// index-bytes.
func BenchmarkTable1IndexSizes(b *testing.B) {
	e := experiment(b)
	for _, en := range bench.PaperStrategies() {
		b.Run(en.Label, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				ix, err := flix.Build(e.Coll, en.Config)
				if err != nil {
					b.Fatal(err)
				}
				bytes, err = ix.SizeBytes()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bytes), "index-bytes")
		})
	}
}

// BenchmarkFigure5QueryTime regenerates Figure 5: time to deliver the first
// 100 results of start//article per strategy.
func BenchmarkFigure5QueryTime(b *testing.B) {
	e := experiment(b)
	for _, en := range bench.PaperStrategies() {
		bu := built(b, en)
		b.Run(en.Label, func(b *testing.B) {
			results := 0
			for i := 0; i < b.N; i++ {
				results = 0
				bu.Index.Descendants(e.Start, "article",
					flix.Options{MaxResults: 100}, func(flix.Result) bool {
						results++
						return true
					})
			}
			b.ReportMetric(float64(results), "results")
		})
	}
}

// BenchmarkFigure5FirstResult measures the latency to the very first
// result — the regime where the paper's FliX configurations beat monolithic
// HOPI.
func BenchmarkFigure5FirstResult(b *testing.B) {
	e := experiment(b)
	for _, en := range bench.PaperStrategies() {
		bu := built(b, en)
		b.Run(en.Label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bu.Index.Descendants(e.Start, "article",
					flix.Options{MaxResults: 1}, func(flix.Result) bool { return true })
			}
		})
	}
}

// BenchmarkFigure5AllResults measures the complete evaluation — the regime
// where monolithic HOPI is "clearly the fastest to return all results".
func BenchmarkFigure5AllResults(b *testing.B) {
	e := experiment(b)
	for _, en := range bench.PaperStrategies() {
		bu := built(b, en)
		b.Run(en.Label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bu.Index.Descendants(e.Start, "article",
					flix.Options{}, func(flix.Result) bool { return true })
			}
		})
	}
}

// BenchmarkErrorRates regenerates the in-text order-error experiment; the
// rate is reported as error-pct (paper: HOPI-5000 8.2%, HOPI-20000 10.4%,
// Maximal PPO 13.3%).
func BenchmarkErrorRates(b *testing.B) {
	e := experiment(b)
	oracle := bench.OracleDistances(e.Coll, e.Start, "article")
	for _, en := range bench.PaperStrategies() {
		bu := built(b, en)
		b.Run(en.Label, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				ts := bench.QueryTimeSeries(bu, e.Start, "article", 0)
				rate = bench.ErrorRate(ts.Results, oracle)
			}
			b.ReportMetric(100*rate, "error-pct")
		})
	}
}

// BenchmarkConnectionTest regenerates the connection-test experiment
// ("same trend, lower absolute numbers").
func BenchmarkConnectionTest(b *testing.B) {
	e := experiment(b)
	for _, en := range bench.PaperStrategies() {
		bu := built(b, en)
		b.Run(en.Label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.ConnectionTest(bu, e.Coll, e.Start, 20)
			}
		})
	}
}

// BenchmarkAblationHopiCover compares the pruned 2-hop cover against the
// naive transitive-closure labeling (DESIGN.md §4.1) on one meta-document
// sized graph; label-entries quantifies the compression.
func BenchmarkAblationHopiCover(b *testing.B) {
	e := experiment(b)
	// Flatten a mid-sized subgraph: the first 500 documents.
	lb := lgraph.NewBuilder()
	limit := 500
	if e.Coll.NumDocs() < limit {
		limit = e.Coll.NumDocs()
	}
	var last xmlgraph.NodeID
	for d := 0; d < limit; d++ {
		first, l := e.Coll.Doc(xmlgraph.DocID(d)).Nodes()
		for n := first; n < l; n++ {
			lb.AddNode(e.Coll.Tag(n))
			last = n
		}
	}
	for d := 0; d < limit; d++ {
		first, l := e.Coll.Doc(xmlgraph.DocID(d)).Nodes()
		for n := first; n < l; n++ {
			e.Coll.EachChild(n, func(ch xmlgraph.NodeID) {
				lb.AddEdge(int32(n), int32(ch))
			})
		}
	}
	for _, lk := range e.Coll.Links() {
		if lk.From <= last && lk.To <= last {
			lb.AddEdge(int32(lk.From), int32(lk.To))
		}
	}
	g := lb.Finish()
	b.Run("pruned", func(b *testing.B) {
		var entries int
		for i := 0; i < b.N; i++ {
			entries = hopi.Build(g).LabelEntries()
		}
		b.ReportMetric(float64(entries), "label-entries")
	})
	b.Run("naive", func(b *testing.B) {
		var entries int
		for i := 0; i < b.N; i++ {
			entries = hopi.BuildNaive(g).LabelEntries()
		}
		b.ReportMetric(float64(entries), "label-entries")
	})
}

// BenchmarkAblationExactOrder measures the cost of exactly ordered output
// versus the paper's approximate block-wise streaming (DESIGN.md §4.2).
func BenchmarkAblationExactOrder(b *testing.B) {
	e := experiment(b)
	bu := built(b, bench.Entry{Label: "HOPI-5000",
		Config: flix.Config{Kind: flix.UnconnectedHOPI, PartitionSize: 5000}})
	for _, mode := range []struct {
		name string
		opts flix.Options
	}{
		{"approximate", flix.Options{}},
		{"exact", flix.Options{ExactOrder: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bu.Index.Descendants(e.Start, "article", mode.opts, func(flix.Result) bool { return true })
			}
		})
	}
}

// BenchmarkAblationDupElim compares the entry-point duplicate elimination
// (§5.1) against the rejected full seen-set (DESIGN.md §4.3).
func BenchmarkAblationDupElim(b *testing.B) {
	e := experiment(b)
	bu := built(b, bench.Entry{Label: "HOPI-5000",
		Config: flix.Config{Kind: flix.UnconnectedHOPI, PartitionSize: 5000}})
	for _, mode := range []struct {
		name string
		opts flix.Options
	}{
		{"entry-points", flix.Options{}},
		{"seen-set", flix.Options{DupSeenSet: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bu.Index.Descendants(e.Start, "article", mode.opts, func(flix.Result) bool { return true })
			}
		})
	}
}

// BenchmarkAblationBidirectional compares the forward connection test
// against the §5.2 bidirectional optimization (DESIGN.md §4.5).
func BenchmarkAblationBidirectional(b *testing.B) {
	e := experiment(b)
	bu := built(b, bench.Entry{Label: "HOPI-5000",
		Config: flix.Config{Kind: flix.UnconnectedHOPI, PartitionSize: 5000}})
	target := e.Coll.Doc(xmlgraph.DocID(0)).Root
	b.Run("forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bu.Index.Connected(e.Start, target, 12)
		}
	})
	b.Run("bidirectional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bu.Index.ConnectedBidirectional(e.Start, target, 12)
		}
	})
}

// BenchmarkAblationPartitionSize sweeps the Unconnected HOPI size bound —
// the knob behind HOPI-5000 vs HOPI-20000 (DESIGN.md §4.4).
func BenchmarkAblationPartitionSize(b *testing.B) {
	e := experiment(b)
	for _, size := range []int{1000, 5000, 20000, 80000} {
		en := bench.Entry{
			Label:  "HOPI-" + strconv.Itoa(size),
			Config: flix.Config{Kind: flix.UnconnectedHOPI, PartitionSize: size},
		}
		bu := built(b, en)
		b.Run(en.Label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bu.Index.Descendants(e.Start, "article",
					flix.Options{MaxResults: 100}, func(flix.Result) bool { return true })
			}
			b.ReportMetric(float64(bu.Index.NumMetaDocuments()), "meta-docs")
		})
	}
}

// BenchmarkAblationHopiDC compares the monolithic HOPI build against the
// paper's divide-and-conquer construction (partition, label border hubs
// globally, label interior hubs within their partition).
func BenchmarkAblationHopiDC(b *testing.B) {
	e := experiment(b)
	for _, en := range []bench.Entry{
		{Label: "monolithic", Config: flix.Config{Kind: flix.Monolithic, Strategy: "hopi"}},
		{Label: "divide-and-conquer", Config: flix.Config{Kind: flix.Monolithic, Strategy: "hopi-dc"}},
	} {
		b.Run(en.Label, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				ix, err := flix.Build(e.Coll, en.Config)
				if err != nil {
					b.Fatal(err)
				}
				bytes, _ = ix.SizeBytes()
			}
			b.ReportMetric(float64(bytes), "index-bytes")
		})
	}
}

// BenchmarkDecompose measures the Meta Document Builder alone (partitioning
// plus flattening into meta documents, §4.1–4.3) per configuration: what the
// first build or snapshot open over a collection pays and later generations
// share.  Every iteration empties the collection's derived slot first, so
// that Decompose computes instead of finding the previous iteration's Set;
// partition-ms and meta-ms split it the way BuildStats does.
func BenchmarkDecompose(b *testing.B) {
	e := experiment(b)
	for _, c := range []struct {
		name string
		cfg  flix.Config
	}{
		{"hybrid-5000", flix.Config{Kind: flix.Hybrid, PartitionSize: 5000, MinTreeDocs: 2}},
		{"hybrid-2000", flix.Config{Kind: flix.Hybrid, PartitionSize: 2000, MinTreeDocs: 2}},
		{"unconnected-hopi", flix.Config{Kind: flix.UnconnectedHOPI, PartitionSize: 5000}},
		{"naive", flix.Config{Kind: flix.Naive}},
		{"element-level", flix.Config{Kind: flix.ElementLevel, PartitionSize: 5000}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var bs flix.BuildStats
			for i := 0; i < b.N; i++ {
				e.Coll.UpdateDerived(func(any) any { return nil })
				var err error
				if _, bs, err = iflix.Decompose(e.Coll, c.cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bs.Partition.Microseconds())/1e3, "partition-ms")
			b.ReportMetric(float64(bs.MetaBuild.Microseconds())/1e3, "meta-ms")
		})
	}
}

// BenchmarkOpenSnapshot measures a v2 snapshot open from memory, raw and
// compressed, the way a hot swap pays it: over the decomposition the build
// kept on the collection (BenchmarkDecompose is the first open's extra), so
// the checksum, opening every section in place and the link tables.
func BenchmarkOpenSnapshot(b *testing.B) {
	e := experiment(b)
	bu := built(b, bench.Entry{Label: "Hybrid",
		Config: flix.Config{Kind: flix.Hybrid, PartitionSize: 5000}})
	for _, c := range []struct {
		name string
		opts iflix.SnapshotV2Options
	}{
		{"raw", iflix.SnapshotV2Options{}},
		{"compressed", iflix.SnapshotV2Options{Compress: true}},
	} {
		var buf bytes.Buffer
		if _, err := bu.Index.WriteSnapshotV2With(&buf, c.opts); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix, err := flix.OpenSnapshotBytes(e.Coll, buf.Bytes())
				if err != nil {
					b.Fatal(err)
				}
				ix.Close()
			}
		})
	}
}

// BenchmarkHotPathDescendants measures the steady-state serving hot path on
// the recommended Hybrid configuration with allocation reporting; the gate
// on its allocs/op staying at zero is TestDescendantsAllocBudget.
func BenchmarkHotPathDescendants(b *testing.B) {
	e := experiment(b)
	bu := built(b, bench.Entry{Label: "Hybrid",
		Config: flix.Config{Kind: flix.Hybrid, PartitionSize: 5000}})
	drop := func(flix.Result) bool { return true }
	opts := flix.Options{MaxResults: 100}
	for i := 0; i < 3; i++ { // warm the scratch pool and lazy index state
		bu.Index.Descendants(e.Start, "article", opts, drop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu.Index.Descendants(e.Start, "article", opts, drop)
	}
}

// BenchmarkHotPathDescendantsTraced is the same workload with a tracer
// attached — the allocs/op difference is the cost of observability.
func BenchmarkHotPathDescendantsTraced(b *testing.B) {
	e := experiment(b)
	bu := built(b, bench.Entry{Label: "Hybrid",
		Config: flix.Config{Kind: flix.Hybrid, PartitionSize: 5000}})
	drop := func(flix.Result) bool { return true }
	for i := 0; i < 3; i++ {
		bu.Index.Descendants(e.Start, "article", flix.Options{MaxResults: 100}, drop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := flix.Options{MaxResults: 100, Tracer: flix.NewTrace(256)}
		bu.Index.Descendants(e.Start, "article", opts, drop)
	}
}

// BenchmarkHotPathTypeDescendants measures the multi-start A//B hot path
// with allocation reporting.
func BenchmarkHotPathTypeDescendants(b *testing.B) {
	bu := built(b, bench.Entry{Label: "Hybrid",
		Config: flix.Config{Kind: flix.Hybrid, PartitionSize: 5000}})
	drop := func(flix.Result) bool { return true }
	opts := flix.Options{MaxResults: 100}
	for i := 0; i < 3; i++ {
		bu.Index.TypeDescendants("inproceedings", "article", opts, drop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu.Index.TypeDescendants("inproceedings", "article", opts, drop)
	}
}

// BenchmarkHotPathTopK measures the ranked top-k pipeline with allocation
// reporting; it rides on the same pooled evaluator underneath.
func BenchmarkHotPathTopK(b *testing.B) {
	bu := built(b, bench.Entry{Label: "Hybrid",
		Config: flix.Config{Kind: flix.Hybrid, PartitionSize: 5000}})
	ev := &query.Evaluator{Index: bu.Index}
	q, err := query.Parse("//inproceedings//article")
	if err != nil {
		b.Fatal(err)
	}
	ev.EvaluateTopK(q, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvaluateTopK(q, 10)
	}
}

// BenchmarkAblationTopK compares full ranked evaluation against the
// Fagin-style threshold-algorithm top-k (§3.1) on the DBLP collection.
func BenchmarkAblationTopK(b *testing.B) {
	bu := built(b, bench.Entry{Label: "HOPI-5000",
		Config: flix.Config{Kind: flix.UnconnectedHOPI, PartitionSize: 5000}})
	ev := &query.Evaluator{Index: bu.Index}
	q, err := query.Parse("//inproceedings//article")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			n = len(ev.Evaluate(q))
		}
		b.ReportMetric(float64(n), "results")
	})
	b.Run("top-10", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			n = len(ev.EvaluateTopK(q, 10))
		}
		b.ReportMetric(float64(n), "results")
	})
}

// TestPublicAPISmoke exercises the facade end to end so the root package
// has test coverage of its exported surface.
func TestPublicAPISmoke(t *testing.T) {
	coll := flix.NewCollection()
	d := coll.NewDocument("d.xml")
	root := d.Enter("a", "")
	d.AddLeaf("b", "x")
	d.Leave()
	d.Close()
	coll.Freeze()
	ix, err := flix.Build(coll, flix.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	ix.Descendants(root, "b", flix.Options{}, func(r flix.Result) bool {
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("descendants = %d", n)
	}
	if _, err := flix.ParseQuery("//a//b"); err != nil {
		t.Fatal(err)
	}
	if _, err := flix.ParseOntology("a b 0.5"); err != nil {
		t.Fatal(err)
	}
	if st := flix.ComputeStats(coll); st.Nodes != 2 {
		t.Fatalf("stats = %+v", st)
	}
}
