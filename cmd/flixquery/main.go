// Command flixquery loads a directory of XML documents, builds a FliX
// index and evaluates path expressions against it.
//
// Usage:
//
//	flixquery -dir ./docs -query '//~movie//actor' [-config hybrid]
//	flixquery -dir ./docs -start movies.xml -tag actor [-k 20]
//	flixquery -dir ./docs -stats
//	flixquery -server http://router:8090 -query '//movie//actor' -explain
//
// The -query form uses the ranked evaluator with structural and semantic
// vagueness (an ontology can be supplied with -ontology file): -k 0, the
// default, ranks every match through the same evaluator that -k 20 stops
// early after the first twenty.  The -start/-tag form streams raw a//b
// results in approximate distance order.
// With -explain either form additionally prints the query plan: per-meta-
// document strategy, entry points, duplicate drops, runtime link hops, and
// the frontier's distance progression.
//
// With -server the query runs against a live flixd or flixd-router over
// HTTP instead of a locally built index; -explain then requests ?trace=1
// and renders the server's EXPLAIN — for a router, the merged cluster
// trace with per-shard fragments and per-round scatter spans.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"unicode/utf8"

	flix "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flixquery: ")
	var (
		dir      = flag.String("dir", "", "directory of *.xml documents (required)")
		config   = flag.String("config", "hybrid", "configuration: naive | maximal-ppo | unconnected-hopi | hybrid | monolithic | element-level")
		partSize = flag.Int("partition", 5000, "partition size bound for unconnected-hopi / hybrid / element-level")
		strategy = flag.String("strategy", "", "force a per-meta-document strategy: ppo | hopi | apex")
		queryStr = flag.String("query", "", "ranked path expression, e.g. //~movie//actor")
		ontoFile = flag.String("ontology", "", "ontology file with 'tagA tagB score' lines for ~ expansion")
		startDoc = flag.String("start", "", "document name whose root anchors a raw a//b query")
		tag      = flag.String("tag", "", "element name for the raw query (empty = wildcard)")
		k        = flag.Int("k", 0, "maximum results (0 = all)")
		maxDist  = flag.Int("maxdist", 0, "distance threshold (0 = unlimited)")
		timeout  = flag.Duration("timeout", 0, "abort the query after this duration (0 = no deadline), e.g. 500ms")
		explain  = flag.Bool("explain", false, "trace the evaluation and print the query plan after the results")
		stats    = flag.Bool("stats", false, "print collection statistics and index summary, then exit")
		saveIx   = flag.String("save", "", "write the built index to this file")
		loadIx   = flag.String("load", "", "load a previously saved index instead of building (-config is ignored)")
		server   = flag.String("server", "", "base URL of a running flixd or flixd-router; query remotely instead of building an index")
	)
	flag.Parse()
	if *server != "" {
		runRemote(strings.TrimRight(*server, "/"), *queryStr, *startDoc, *tag, *k, *maxDist, *timeout, *explain)
		return
	}
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	loader := flix.NewLoader()
	if err := loader.LoadDir(*dir); err != nil {
		log.Fatal(err)
	}
	coll, err := loader.Finish()
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range loader.Errs() {
		log.Printf("warning: %v", e)
	}

	var ix *flix.Index
	if *loadIx != "" {
		ix, err = flix.OpenSnapshot(coll, *loadIx)
		if err != nil {
			log.Fatal(err)
		}
		defer ix.Close()
	} else {
		cfg, err := parseConfig(*config, *partSize, *strategy)
		if err != nil {
			log.Fatal(err)
		}
		ix, err = flix.Build(coll, cfg)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *saveIx != "" {
		f, err := os.Create(*saveIx)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := ix.WriteSnapshotV2(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("index saved to %s", *saveIx)
	}

	if *stats {
		fmt.Println(flix.ComputeStats(coll))
		fmt.Println(ix.Describe())
		if sz, err := ix.SizeBytes(); err == nil {
			fmt.Printf("index size: %d bytes\n", sz)
		}
		return
	}

	// The deadline uses the same cancellation hook as the flixd server:
	// the context's Done channel threads into the evaluator's
	// priority-queue loop, so a timed-out query stops promptly and the
	// results printed so far stand.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var tr *flix.Trace
	if *explain {
		tr = flix.NewTrace(0)
	}
	switch {
	case *queryStr != "":
		runRanked(ctx, ix, coll, *queryStr, *ontoFile, *k, tr)
	case *startDoc != "":
		runRaw(ctx, ix, coll, *startDoc, *tag, *k, *maxDist, tr)
	default:
		log.Fatal("one of -query, -start or -stats is required")
	}
	if tr != nil {
		fmt.Println()
		fmt.Print(localPlan(tr))
	}
	if ctx.Err() != nil {
		log.Printf("query aborted after %v; results above are partial", *timeout)
	}
}

// localPlan renders a local evaluation's query plan from its summary with
// the events kept — the summary flixd answers ?trace=1 with — so a local
// plan carries the frontier-pops line a remote one does.
func localPlan(tr *flix.Trace) string { return tr.Summary(true).Render() }

func parseConfig(name string, partSize int, strategy string) (flix.Config, error) {
	kind, err := flix.ParseConfigKind(name)
	return flix.Config{Kind: kind, PartitionSize: partSize, Strategy: strategy}, err
}

func runRanked(ctx context.Context, ix *flix.Index, coll *flix.Collection, expr, ontoFile string, k int, tr *flix.Trace) {
	q, err := flix.ParseQuery(expr)
	if err != nil {
		log.Fatal(err)
	}
	eval := &flix.Evaluator{Index: ix, Cancel: ctx.Done(), Tracer: tr}
	if ontoFile != "" {
		text, err := os.ReadFile(ontoFile)
		if err != nil {
			log.Fatal(err)
		}
		onto, err := flix.ParseOntology(string(text))
		if err != nil {
			log.Fatal(err)
		}
		eval.Ontology = onto
	}
	// k > 0 stops early through the threshold algorithm; 0 ranks everything.
	matches := eval.EvaluateTopK(q, k)
	if len(matches) == 0 {
		fmt.Println("no results")
		return
	}
	for i, m := range matches {
		fmt.Printf("%3d. %.3f  <%s>  %s  (doc %s, path length %d)\n",
			i+1, m.Score, coll.Tag(m.Node), snippet(coll.Text(m.Node)),
			coll.Doc(coll.DocOf(m.Node)).Name, m.PathLen)
	}
}

func runRaw(ctx context.Context, ix *flix.Index, coll *flix.Collection, startDoc, tag string, k, maxDist int, tr *flix.Trace) {
	d, ok := coll.DocByName(startDoc)
	if !ok {
		log.Fatalf("document %q not in collection", startDoc)
	}
	start := coll.Doc(d).Root
	opts := flix.Options{MaxResults: k, MaxDist: int32(maxDist), Cancel: ctx.Done(), Tracer: tr}
	i := 0
	ix.Descendants(start, tag, opts, func(r flix.Result) bool {
		i++
		fmt.Printf("%3d. dist=%-4d <%s>  %s  (doc %s)\n",
			i, r.Dist, coll.Tag(r.Node), snippet(coll.Text(r.Node)),
			coll.Doc(coll.DocOf(r.Node)).Name)
		return true
	})
	if i == 0 {
		fmt.Println("no results")
	}
}

func snippet(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 40 {
		// A cut inside a rune backs off to the rune's first byte.
		cut := 37
		for p := cut; p > cut-utf8.UTFMax; p-- {
			if utf8.RuneStart(s[p]) {
				cut = p
				break
			}
		}
		s = s[:cut] + "..."
	}
	if s == "" {
		return `""`
	}
	return fmt.Sprintf("%q", s)
}
