// Package daemon is what the flixd and flixd-router processes share around
// their handlers: the flags both declare, loading the corpus, then listen,
// the optional pprof side listener and the SIGINT/SIGTERM drain.  It is apart from package front so
// that only the two commands link net/http/pprof.
package daemon

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ontology"
	"repro/internal/xmlgraph"
	"repro/internal/xmlparse"
)

// Flags holds the flags every daemon declares, once the FlagSet is parsed.
type Flags struct {
	Addr, Dir, Ontology, DebugAddr      string
	InFlight, Limit, MaxLimit, BatchMax int
	Timeout, MaxTimeout, Drain          time.Duration
	Quiet                               bool
}

// DeclareFlags declares the shared flags on fs, with addr as -addr's
// default, and returns the Flags that fs.Parse fills.
func DeclareFlags(fs *flag.FlagSet, addr string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Addr, "addr", addr, "listen address")
	fs.StringVar(&f.Dir, "dir", "", "directory of *.xml documents (required; a router loads the same one as its shards)")
	fs.StringVar(&f.Ontology, "ontology", "", "ontology file with 'tagA tagB score' lines for ~ expansion")
	fs.IntVar(&f.InFlight, "inflight", 64, "admission limit: concurrent queries before 429 shedding")
	fs.DurationVar(&f.Timeout, "timeout", 2*time.Second, "default per-request deadline")
	fs.DurationVar(&f.MaxTimeout, "max-timeout", 30*time.Second, "upper clamp on client-requested deadlines")
	fs.IntVar(&f.Limit, "limit", 100, "default result limit per request")
	fs.IntVar(&f.MaxLimit, "max-limit", 10000, "upper clamp on client-requested result limits")
	fs.IntVar(&f.BatchMax, "batch-max", 256, "queries allowed in one POST /v1/batch request")
	fs.DurationVar(&f.Drain, "drain", 15*time.Second, "shutdown grace period for in-flight queries")
	fs.BoolVar(&f.Quiet, "quiet", false, "disable per-request access logging")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve net/http/pprof on this address (empty disables)")
	return f
}

// Corpus loads the *.xml documents under dir — the collection a daemon
// resolves and renders nodes from — and, when ontoFile is set, the tag
// ontology for ~ expansion (nil otherwise).  Documents that fail to parse
// are skipped with a warning.
func Corpus(dir, ontoFile string) (*xmlgraph.Collection, *ontology.Ontology, error) {
	loader := xmlparse.NewLoader()
	if err := loader.LoadDir(dir); err != nil {
		return nil, nil, err
	}
	coll, err := loader.Finish()
	if err != nil {
		return nil, nil, err
	}
	for _, e := range loader.Errs() {
		log.Printf("warning: %v", e)
	}
	if ontoFile == "" {
		return coll, nil, nil
	}
	text, err := os.ReadFile(ontoFile)
	if err != nil {
		return nil, nil, err
	}
	onto, err := ontology.Parse(string(text))
	return coll, onto, err
}

// Run serves h on addr until SIGINT or SIGTERM, then stops accepting
// connections and lets in-flight requests finish for at most drain.  A
// non-empty debugAddr serves /debug/pprof/ on its own listener, so
// profiling access can be firewalled separately from the query API.  Run
// returns a listen or shutdown failure, nil after a drain.
func Run(addr, debugAddr string, h http.Handler, drain time.Duration) error {
	if debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof on %s/debug/pprof/", debugAddr)
			if err := http.ListenAndServe(debugAddr, dbg); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	srv := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case got := <-sig:
		log.Printf("%v: draining in-flight queries (max %s)", got, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		log.Print("bye")
		return nil
	}
}
