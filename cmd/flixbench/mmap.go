package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/dblp"
	"repro/internal/flix"
	"repro/internal/xmlgraph"
)

// mmapResult is the machine-readable record of the mmap experiment,
// written to BENCH_mmap.json: warm-start latency of the v1 parse path vs
// the v2 mmap path on the same index, file sizes of both formats, and the
// query hot path served from the heap build vs the mapped snapshot.
type mmapResult struct {
	Experiment string `json:"experiment"`
	Config     string `json:"config"`
	Docs       int    `json:"docs"`
	Elements   int    `json:"elements"`

	V1Bytes int64 `json:"v1Bytes"`
	V2Bytes int64 `json:"v2Bytes"`

	// Warm-start wall time (best of several runs): parsing the v1 stream
	// vs opening the v2 container memory-mapped.  Both paths recompute the
	// meta-document decomposition from the collection; DecomposeNs is what
	// the best v2 open spent in it, by its own BuildStats (Partition +
	// MetaBuild).
	V1LoadNs      int64 `json:"v1LoadNs"`
	V2OpenNs      int64 `json:"v2OpenNs"`
	DecomposeNs   int64 `json:"decomposeNs"`
	MetaDocuments int   `json:"metaDocuments"`
	// WarmStartSpeedup is v1LoadNs / v2OpenNs end to end.  The *ExtraNs
	// pair is each load minus its own decomposition: what the format costs
	// — parsing every index for v1; mapping, checking fingerprints, opening
	// sections in place and building the link tables for v2.  The gated
	// figure is that v2 remainder per meta document, an absolute cost: a
	// bar relative to the decomposition would tighten or loosen whenever
	// the decomposition itself changes speed.
	WarmStartSpeedup float64 `json:"warmStartSpeedup"`
	V1ExtraNs        int64   `json:"v1ExtraNs"`
	V2ExtraNs        int64   `json:"v2ExtraNs"`
	V2ExtraUsPerMeta float64 `json:"v2ExtraUsPerMeta"`

	Cases []hotpathCase `json:"cases"`
	// QueryRatioMmap is heap descendants ns/op divided by mmap descendants
	// ns/op (≈1.0 means serving from the mapping costs nothing).
	QueryRatioMmap float64 `json:"queryRatioMmap"`
}

// mmapExperiment measures the v2 snapshot path end to end — persist both
// formats, time warm start for each, then benchmark the query hot path on
// the heap-built and the mmap-backed index — and enforces the acceptance
// bars: the v2 open must beat the v1 parse end to end, must spend at most
// maxExtraUs microseconds per meta document outside the decomposition
// (proving there is no parse step), and the mapped hot path must not
// allocate.  A violation exits nonzero so CI can gate on it.
func mmapExperiment(docs int, seed int64, out string, maxExtraUs float64) {
	fmt.Println("=== Snapshot v2: warm start and mmap-backed serving ===")
	p := dblp.DefaultParams()
	p.Docs = docs
	p.Seed = seed
	e := bench.NewExperiment(p)
	ix, err := flix.Build(e.Coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 5000})
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "flixbench-mmap-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	v1Path := filepath.Join(dir, "gen-000001.flix")
	v2Path := filepath.Join(dir, "gen-000002.flix")
	writeWith := func(path string, write func(*os.File) error) int64 {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := write(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			log.Fatal(err)
		}
		return fi.Size()
	}
	r := mmapResult{
		Experiment: "mmap",
		Config:     ix.Config().Kind.String(),
		Docs:       e.Coll.NumDocs(),
		Elements:   e.Coll.NumNodes(),
	}
	r.V1Bytes = writeWith(v1Path, func(f *os.File) error { _, err := ix.WriteTo(f); return err })
	r.V2Bytes = writeWith(v2Path, func(f *os.File) error { _, err := ix.WriteSnapshotV2(f); return err })
	fmt.Printf("snapshot size: v1 %s, v2 %s\n", bench.FormatBytes(r.V1Bytes), bench.FormatBytes(r.V2Bytes))

	// Warm start: best of several runs, so page-cache effects favour
	// neither side (both files were just written).  Each load reports the
	// decomposition it recomputed, so the format's own cost is the rest.
	timeLoad := func(path string, useMmap bool) (best, decompose int64) {
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			lx, err := flix.LoadSnapshotFile(e.Coll, path, useMmap)
			el := time.Since(t0).Nanoseconds()
			if err != nil {
				log.Fatal(err)
			}
			bs := lx.BuildStats()
			lx.Close()
			if best == 0 || el < best {
				best, decompose = el, (bs.Partition + bs.MetaBuild).Nanoseconds()
			}
		}
		return best, decompose
	}
	var v1Decompose int64
	r.V1LoadNs, v1Decompose = timeLoad(v1Path, false)
	r.V2OpenNs, r.DecomposeNs = timeLoad(v2Path, true)
	r.WarmStartSpeedup = float64(r.V1LoadNs) / float64(r.V2OpenNs)
	r.MetaDocuments = ix.NumMetaDocuments()
	r.V1ExtraNs = r.V1LoadNs - v1Decompose
	r.V2ExtraNs = r.V2OpenNs - r.DecomposeNs
	r.V2ExtraUsPerMeta = float64(r.V2ExtraNs) / 1e3 / float64(r.MetaDocuments)
	fmt.Printf("warm start: v1 parse %s, v2 mmap open %s (%.1fx end to end)\n",
		time.Duration(r.V1LoadNs).Round(time.Microsecond),
		time.Duration(r.V2OpenNs).Round(time.Microsecond), r.WarmStartSpeedup)
	fmt.Printf("  decomposition %s of the v2 open; outside it: v1 parse %s, v2 open %s (%.1f µs per meta document, %d of them)\n",
		time.Duration(r.DecomposeNs).Round(time.Microsecond),
		time.Duration(r.V1ExtraNs).Round(time.Microsecond),
		time.Duration(r.V2ExtraNs).Round(time.Microsecond), r.V2ExtraUsPerMeta, r.MetaDocuments)

	mx, err := flix.OpenSnapshot(e.Coll, v2Path)
	if err != nil {
		log.Fatal(err)
	}
	defer mx.Close()
	si := mx.StorageInfo()
	fmt.Printf("serving storage: format=%s mapped=%v mappedBytes=%d\n", si.Format, si.Mapped, si.MappedBytes)

	drop := func(flix.Result) bool { return true }
	opts := flix.Options{MaxResults: 100}
	connTarget := xmlgraph.NodeID((int(e.Start) + 1000) % e.Coll.NumNodes())
	measure := func(name string, op func()) hotpathCase {
		for i := 0; i < 3; i++ {
			op() // warm pools, tag postings, lazy structures
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
		c := hotpathCase{
			Name:        name,
			NsPerOp:     res.NsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
		fmt.Printf("%-28s %12d ns/op %8d B/op %6d allocs/op\n",
			c.Name, c.NsPerOp, c.BytesPerOp, c.AllocsPerOp)
		return c
	}
	cases := []hotpathCase{
		measure("descendants-heap", func() {
			ix.Descendants(e.Start, "article", opts, drop)
		}),
		measure("descendants-mmap", func() {
			mx.Descendants(e.Start, "article", opts, drop)
		}),
		measure("connected-heap", func() {
			ix.Connected(e.Start, connTarget, 0)
		}),
		measure("connected-mmap", func() {
			mx.Connected(e.Start, connTarget, 0)
		}),
	}
	r.Cases = cases
	byName := map[string]hotpathCase{}
	for _, c := range cases {
		byName[c.Name] = c
	}
	r.QueryRatioMmap = float64(byName["descendants-heap"].NsPerOp) /
		float64(byName["descendants-mmap"].NsPerOp)
	fmt.Printf("query ns/op heap/mmap ratio: %.2f\n", r.QueryRatioMmap)

	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)

	if a := byName["descendants-mmap"].AllocsPerOp; a != 0 {
		log.Fatalf("acceptance: mmap-backed descendants allocated %d allocs/op, want 0", a)
	}
	if r.WarmStartSpeedup < 1 {
		log.Fatalf("acceptance: v2 warm start (%s) is slower end to end than the v1 parse (%s)",
			time.Duration(r.V2OpenNs), time.Duration(r.V1LoadNs))
	}
	if maxExtraUs > 0 && r.V2ExtraUsPerMeta > maxExtraUs {
		log.Fatalf("acceptance: v2 open spends %.1f µs per meta document outside the decomposition (bar %.1f) — a parse step crept in",
			r.V2ExtraUsPerMeta, maxExtraUs)
	}
	fmt.Println()
}
