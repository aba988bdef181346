package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dblp"
	"repro/internal/flix"
	"repro/internal/xmlgraph"
)

// smallExperiment is shared by the tests; 400 documents keep everything
// fast while preserving the collection's structure.
func smallExperiment(t testing.TB) *Experiment {
	t.Helper()
	return NewExperiment(dblp.Scaled(400))
}

func TestBuildAllAndSizes(t *testing.T) {
	e := smallExperiment(t)
	built, err := e.BuildAll(PaperStrategies())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := IndexSizes(built)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byLabel := map[string]SizeRow{}
	for _, r := range rows {
		if r.Bytes <= 0 {
			t.Errorf("%s: size %d", r.Label, r.Bytes)
		}
		byLabel[r.Label] = r
	}
	// Table 1 shape: monolithic HOPI is the largest index.  HOPI-20000 is
	// excluded: at this small scale the whole collection fits in one
	// 20000-node partition, so it degenerates to monolithic HOPI (plus a
	// few bytes of empty link tables).
	for _, l := range []string{"APEX", "PPO-naive", "HOPI-5000", "MaximalPPO"} {
		if byLabel["HOPI"].Bytes <= byLabel[l].Bytes {
			t.Errorf("HOPI (%d) should exceed %s (%d)", byLabel["HOPI"].Bytes, l, byLabel[l].Bytes)
		}
	}
	if byLabel["HOPI"].Bytes+64 < byLabel["HOPI-20000"].Bytes {
		t.Errorf("HOPI-20000 (%d) should not materially exceed HOPI (%d)",
			byLabel["HOPI-20000"].Bytes, byLabel["HOPI"].Bytes)
	}
	// FliX HOPI partitions stay below monolithic HOPI even at this small
	// scale; the paper's order-of-magnitude gap emerges at full scale
	// (asserted by the root bench suite on the 6,210-document corpus).
	// Meta document counts: monolithic = 1, naive = one per document.
	if byLabel["HOPI"].MetaDocs != 1 || byLabel["PPO-naive"].MetaDocs != 400 {
		t.Errorf("meta docs: %v / %v", byLabel["HOPI"].MetaDocs, byLabel["PPO-naive"].MetaDocs)
	}
	out := FormatSizeTable(rows)
	if !strings.Contains(out, "HOPI-5000") || !strings.Contains(out, "MB") {
		t.Errorf("FormatSizeTable output:\n%s", out)
	}
}

func TestQueryTimeSeries(t *testing.T) {
	e := smallExperiment(t)
	built, err := e.BuildAll(PaperStrategies()[:1])
	if err != nil {
		t.Fatal(err)
	}
	ts := QueryTimeSeries(built[0], e.Start, "article", 50)
	if len(ts.Results) == 0 || len(ts.At) != len(ts.Results) {
		t.Fatalf("series: %d results, %d stamps", len(ts.Results), len(ts.At))
	}
	for i := 1; i < len(ts.At); i++ {
		if ts.At[i] < ts.At[i-1] {
			t.Error("timestamps must be monotone")
		}
	}
	s := ts.Sample([]int{1, 10, 1000})
	if s[0] > s[1] || s[1] > s[2] {
		t.Errorf("Sample not monotone: %v", s)
	}
	if s[2] != ts.At[len(ts.At)-1] {
		t.Error("overlong sample must clamp to the last arrival")
	}
	out := FormatFigure5([]TimeSeries{ts}, []int{1, 10, 50})
	if !strings.Contains(out, "HOPI") {
		t.Errorf("FormatFigure5 output:\n%s", out)
	}
}

func TestSampleEmptySeries(t *testing.T) {
	ts := TimeSeries{Total: time.Second}
	s := ts.Sample([]int{1, 5})
	if s[0] != time.Second || s[1] != time.Second {
		t.Errorf("empty series sample = %v", s)
	}
}

func TestErrorRate(t *testing.T) {
	trueDist := map[xmlgraph.NodeID]int32{1: 1, 2: 2, 3: 3, 4: 4}
	ordered := []flix.Result{{Node: 1}, {Node: 2}, {Node: 3}, {Node: 4}}
	if r := ErrorRate(ordered, trueDist); r != 0 {
		t.Errorf("ordered rate = %g", r)
	}
	// Node 1 (true dist 1) arrives after node 3 (true dist 3): one error.
	swapped := []flix.Result{{Node: 2}, {Node: 3}, {Node: 1}, {Node: 4}}
	if r := ErrorRate(swapped, trueDist); r != 0.25 {
		t.Errorf("swapped rate = %g", r)
	}
	// Spurious node counts as wrong.
	spurious := []flix.Result{{Node: 9}}
	if r := ErrorRate(spurious, trueDist); r != 1 {
		t.Errorf("spurious rate = %g", r)
	}
	if r := ErrorRate(nil, trueDist); r != 0 {
		t.Errorf("empty rate = %g", r)
	}
}

func TestErrorRatesAcrossStrategies(t *testing.T) {
	e := smallExperiment(t)
	built, err := e.BuildAll(PaperStrategies())
	if err != nil {
		t.Fatal(err)
	}
	oracle := OracleDistances(e.Coll, e.Start, "article")
	for _, b := range built {
		ts := QueryTimeSeries(b, e.Start, "article", 0)
		rate := ErrorRate(ts.Results, oracle)
		if rate < 0 || rate > 1 {
			t.Errorf("%s: rate %g out of range", b.Entry.Label, rate)
		}
		// Monolithic strategies stream exactly ordered: rate 0.
		if b.Entry.Label == "HOPI" || b.Entry.Label == "APEX" {
			if rate != 0 {
				t.Errorf("%s: rate %g, want 0 (single meta document)", b.Entry.Label, rate)
			}
		}
		// Result sets are complete regardless of configuration.
		if len(ts.Results) != len(oracle) {
			t.Errorf("%s: %d results, oracle %d", b.Entry.Label, len(ts.Results), len(oracle))
		}
	}
}

func TestConnectionTest(t *testing.T) {
	e := smallExperiment(t)
	built, err := e.BuildAll([]Entry{
		{Label: "HOPI-small", Config: flix.Config{Kind: flix.UnconnectedHOPI, PartitionSize: 2000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := ConnectionTest(built[0], e.Coll, e.Start, 20)
	if row.Pairs != 20 {
		t.Errorf("pairs = %d", row.Pairs)
	}
	if row.Connected == 0 {
		t.Error("no connected pairs found; the sampling is broken")
	}
	if row.Forward <= 0 || row.Bidirectional <= 0 {
		t.Error("timings missing")
	}
}

func TestMixedCollection(t *testing.T) {
	m := MixedCollection(7, 1)
	if len(m.Regions) != 3 {
		t.Fatalf("regions = %d", len(m.Regions))
	}
	c := m.Coll
	if !c.Frozen() {
		t.Fatal("collection not frozen")
	}
	// Regions cover all documents without overlap.
	covered := 0
	for i, r := range m.Regions {
		if r.LastDoc <= r.FirstDoc {
			t.Fatalf("region %d empty", i)
		}
		covered += int(r.LastDoc - r.FirstDoc)
		if c.DocOf(r.Start) < r.FirstDoc || c.DocOf(r.Start) >= r.LastDoc {
			t.Errorf("region %d start element outside region", i)
		}
		if len(c.NodesByTag(r.Tag)) == 0 {
			t.Errorf("region %d tag %q absent", i, r.Tag)
		}
	}
	if covered != c.NumDocs() {
		t.Errorf("regions cover %d of %d docs", covered, c.NumDocs())
	}
	// The tree region has no links touching it; the web region is dense.
	st := xmlgraph.ComputeStats(c)
	if !st.HasCycle {
		t.Error("web region should create cycles")
	}
	for _, l := range c.Links() {
		if tree := m.Regions[0].LastDoc; c.DocOf(l.From) < tree || c.DocOf(l.To) < tree {
			t.Fatal("link touches the link-free tree region")
		}
	}
	// Determinism.
	m2 := MixedCollection(7, 1)
	if m2.Coll.NumNodes() != c.NumNodes() || m2.Coll.NumLinks() != c.NumLinks() {
		t.Error("MixedCollection not deterministic")
	}
	// All configurations index it correctly (smoke: hybrid).
	ix, err := flix.Build(c, flix.Config{Kind: flix.Hybrid, PartitionSize: 2000})
	if err != nil {
		t.Fatal(err)
	}
	counts := ix.StrategyCounts()
	if counts["ppo"] == 0 || counts["hopi"] == 0 {
		t.Errorf("hybrid on mixed collection should use both ppo and hopi: %v", counts)
	}
}

func TestFormatBytes(t *testing.T) {
	if got := FormatBytes(27 << 20); got != "27.00 MB" {
		t.Errorf("FormatBytes = %q", got)
	}
}
