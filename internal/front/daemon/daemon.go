// Package daemon is what the flixd and flixd-router processes share around
// their handlers: loading the corpus, then listen, the optional pprof side
// listener and the SIGINT/SIGTERM drain.  It is apart from package front so
// that only the two commands link net/http/pprof.
package daemon

import (
	"context"
	"errors"
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
