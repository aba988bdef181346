// Command dblp demonstrates FliX on a DBLP-scale bibliographic collection:
// it generates the synthetic corpus the experiments use (one XML document
// per publication, citation links between documents), builds several
// framework configurations, compares their footprints, and streams a top-k
// "all article descendants of a highly-cited paper" query — the workload of
// the paper's Figure 5 — and the type query inproceedings//article.
//
// Usage:
//
//	go run ./examples/dblp [-docs 2000] [-k 20]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	flix "repro"
	"repro/internal/bench"
	"repro/internal/dblp"
)

func main() {
	docs := flag.Int("docs", 2000, "number of publication documents")
	k := flag.Int("k", 20, "results to stream")
	flag.Parse()

	corpus := dblp.Generate(dblp.Scaled(*docs))
	coll := corpus.BuildGraph()
	fmt.Println("collection:", flix.ComputeStats(coll))

	configs := []struct {
		name string
		cfg  flix.Config
	}{
		{"naive", flix.Config{Kind: flix.Naive}},
		{"maximal-ppo", flix.Config{Kind: flix.MaximalPPO}},
		{"hopi-5000", flix.Config{Kind: flix.UnconnectedHOPI, PartitionSize: 5000}},
		{"hybrid", flix.DefaultConfig()},
	}

	type builtIndex struct {
		name string
		ix   *flix.Index
	}
	var built []builtIndex
	fmt.Println("\nconfigurations:")
	for _, c := range configs {
		t0 := time.Now()
		ix, err := flix.Build(coll, c.cfg)
		if err != nil {
			log.Fatal(err)
		}
		sz, err := ix.SizeBytes()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s build=%-10s size=%-10s %s\n",
			c.name, time.Since(t0).Round(time.Millisecond), bench.FormatBytes(sz), ix.Describe())
		built = append(built, builtIndex{c.name, ix})
	}

	start := corpus.Hub(coll)
	fmt.Printf("\nquery start: %s (cites %d papers)\n",
		corpus.Pubs[corpus.HubIndex].Key, len(corpus.Pubs[corpus.HubIndex].Cites))

	// Stream the top-k article descendants from the hybrid index — the
	// client consumes each result as it is found and paces the evaluation by
	// returning from it (§3.1); MaxResults stops it at k.
	ix := built[len(built)-1].ix
	fmt.Printf("\ntop-%d article descendants (hybrid):\n", *k)
	rank := 0
	ix.Descendants(start, "article", flix.Options{MaxResults: *k}, func(r flix.Result) bool {
		rank++
		doc := coll.Doc(coll.DocOf(r.Node))
		fmt.Printf("  %2d. dist=%-3d %s\n", rank, r.Dist, doc.Name)
		return true
	})

	// The type query inproceedings//article (§5.2) starts from every
	// inproceedings element at once.
	var dists []int32
	ix.TypeDescendants("inproceedings", "article", flix.Options{MaxResults: *k}, func(r flix.Result) bool {
		dists = append(dists, r.Dist)
		return true
	})
	fmt.Printf("\ninproceedings//article (hybrid): first %d distances %v\n", len(dists), dists)

	// Compare time-to-k across the configurations.
	fmt.Printf("\ntime to first %d results:\n", *k)
	for _, b := range built {
		t0 := time.Now()
		n := 0
		b.ix.Descendants(start, "article", flix.Options{MaxResults: *k}, func(flix.Result) bool {
			n++
			return true
		})
		fmt.Printf("  %-12s %10s (%d results)\n", b.name, time.Since(t0).Round(time.Microsecond), n)
	}
}
