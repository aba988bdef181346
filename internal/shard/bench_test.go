package shard_test

// In-package benchmarks for the two sides of the shard RPC the end-to-end
// `sharded` workload does not show on their own: the eval codec, and a
// gather with and without a limit.  DESIGN §3g records their numbers; they
// gate nothing.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/dblp"
	"repro/internal/flix"
	"repro/internal/shard"
	"repro/internal/xmlgraph"
)

// jsonEvalResponse is the eval answer as the wire carried it before the
// frame: the same fields under their JSON names, written indented by
// front.OK and read back by a json.Decoder.
type jsonEvalResponse struct {
	Results     []flix.FrontierEntry `json:"results"`
	Hops        []flix.FrontierEntry `json:"hops"`
	Generation  uint64               `json:"generation"`
	Fingerprint string               `json:"fingerprint"`
	Truncated   bool                 `json:"truncated,omitempty"`
	Pops        int64                `json:"pops"`
	Entries     int64                `json:"entries"`
	LinkHops    int64                `json:"linkHops"`
}

// BenchmarkEvalFrame encodes and decodes one 1000-result / 60-hop eval
// answer — an unbounded gather's; under k=100 an answer is a tenth of it —
// as the JSON the wire used to carry and as the frame.
func BenchmarkEvalFrame(b *testing.B) {
	resp := shard.EvalResponse{Generation: 1, Fingerprint: "aa103823ddc96f19", Pops: 480, Entries: 410, LinkHops: 3700}
	for i := 0; i < 1000; i++ {
		resp.Results = append(resp.Results, flix.FrontierEntry{Node: xmlgraph.NodeID(170 * i), Dist: int32(2 + i/60)})
	}
	for i := 0; i < 60; i++ {
		resp.Hops = append(resp.Hops, flix.FrontierEntry{Node: xmlgraph.NodeID(2800 * i), Dist: int32(3 + i/8)})
	}
	b.Run("json", func(b *testing.B) {
		in := jsonEvalResponse{resp.Results, resp.Hops, resp.Generation, resp.Fingerprint, false, resp.Pops, resp.Entries, resp.LinkHops}
		var wire bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wire.Reset()
			enc := json.NewEncoder(&wire)
			enc.SetIndent("", "  ")
			if err := enc.Encode(&in); err != nil {
				b.Fatal(err)
			}
			n := wire.Len()
			var out jsonEvalResponse
			if err := json.NewDecoder(&wire).Decode(&out); err != nil || len(out.Results) != 1000 {
				b.Fatal(err, len(out.Results))
			}
			b.ReportMetric(float64(n), "wire-B/op")
		}
	})
	b.Run("frame", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wire, err := resp.AppendFrame(nil)
			if err != nil {
				b.Fatal(err)
			}
			var out shard.EvalResponse
			if err := out.DecodeFrame(wire); err != nil || len(out.Results) != 1000 {
				b.Fatal(err, len(out.Results))
			}
			b.ReportMetric(float64(len(wire)), "wire-B/op")
		}
	})
}

// BenchmarkGather runs the router's rounds loop over a 2-shard cluster on
// loopback HTTP from the corpus's twenty latest publications (citations
// point back in time, so they reach furthest).  k=100 is what the limit
// buys a bounded request; k=0 — /v1/connected, ranked scans, unlimited k —
// gets the frame and nothing else.
func BenchmarkGather(b *testing.B) {
	gen := dblp.Generate(dblp.Scaled(1500))
	coll := gen.BuildGraph()
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 500})
	if err != nil {
		b.Fatal(err)
	}
	c := newCluster(b, coll, ix, 2, 0)
	for _, bc := range []struct {
		name string
		k    int
	}{{"k=0", 0}, {"k=100", 100}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var results, rounds int
			for i := 0; i < b.N; i++ {
				start := coll.Doc(xmlgraph.DocID(len(gen.Pubs) - 1 - i%20)).Root
				r, n := c.rt.Gather(context.Background(), start, "author", bc.k)
				results, rounds = results+r, rounds+n
			}
			b.ReportMetric(float64(results)/float64(b.N), "results/op")
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}
