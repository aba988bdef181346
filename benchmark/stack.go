package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/flix"
	"repro/internal/server"
	"repro/internal/shard"
)

// workload is one traffic mix and the serving stack it runs against.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop keep-alive connections: the
	// callers of this system (the router, batch clients) wait for each
	// reply, and the reference box has two cores.
	clients int
	cfg     flix.Config
	// cache is server.Config.CacheSize: -1 off, 0 the default 1024.
	cache  int
	shards int  // > 0: that many shard-mode servers behind a shard.Router
	mapped bool // serve a compressed, memory-mapped v2 snapshot
	// tail is the percentile tail_ms reports: the highest the samples of a
	// run support with ten beyond it, and 0.95 at most (p99 did not repeat).
	tail float64
}

var workloads = []workload{
	{
		name: "desc-cold", clients: 2, cfg: flix.DefaultConfig(), cache: -1, tail: 0.95,
		why: "uncached start//tag for the rarest record type and two absent ones, from roots that reach hundreds of documents: little to render, so the priority-queue loop, PPO probes and link sweep dominate",
	},
	{
		name: "mixed-warm", clients: 2, cfg: flix.DefaultConfig(), tail: 0.95,
		why: "cache-hit descendants, traced, connected, ranked top-10 and batch-of-32 mix: HTTP front, QueryCache, top-k and tracing work, cold evaluator mostly idle",
	},
	{
		name: "sharded", clients: 2, cfg: flix.Config{Kind: flix.Hybrid, PartitionSize: 2000}, cache: -1, shards: 2, tail: 0.95,
		why: "link-crossing descendants through a router and two shards: PartialDescendants, gather rounds and shard RPCs work",
	},
	{
		name: "reopen-mapped", clients: 1, cfg: flix.DefaultConfig(), mapped: true, tail: 0.75,
		why: "open a compressed mmap snapshot, install it (re-warming the cache), 50 queries on the fresh generation: storage open and evaluation on cold mapped pages work beside reads",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serverConfig is the serving configuration of every flixd in the
// benchmark; limits are lifted so the verification pass can fetch complete
// result lists.
func (w workload) serverConfig() server.Config {
	return server.Config{DefaultTimeout: 30 * time.Second, MaxLimit: 1 << 20, CacheSize: w.cache}
}

// stack is one workload's running system: corpus, index, and real servers
// on loopback TCP inside this process.
type stack struct {
	w      workload
	corpus *corpus
	// built is the heap index BuildWithOptions returned; serving is what
	// the front answers from (the same index, or its mapped snapshot).
	built, serving *flix.Index
	srv            *server.Server // the single flixd (nil when sharded)
	front          string         // base URL the clients talk to
	scrapeURLs     []string       // every process-like unit with /metrics
	snapshot       string         // the served snapshot file (mapped only)
	snapshotBytes  int64
	buildTime      time.Duration
	indexHeap      int64 // live heap the build added (traced run only)
	snapshotWrite  time.Duration
	closers        []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after Close
	}()
	s.closers = append(s.closers, func() {
		hs.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// scratchDir is where the benchmark keeps files: inside the checkout it
// runs from, next to the build output.
const scratchDir = ".bench_build"

// setUp builds everything a workload needs, from corpus generation to the
// front answering /healthz.  Its wall time is the setup_s metric, so the
// oracle and the verification pass stay outside it.
func setUp(w workload, docs int, sl *spanLog) (*stack, error) {
	s := &stack{w: w, corpus: newCorpus(docs)}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	heap0 := liveHeap(sl != nil)
	sp := sl.begin("flix.BuildWithOptions", 0, -1, false)
	t0 := time.Now()
	ix, err := flix.BuildWithOptions(s.corpus.coll, w.cfg, flix.BuildOptions{})
	s.buildTime = time.Since(t0)
	sl.end(sp)
	s.indexHeap = liveHeap(sl != nil) - heap0
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	s.built, s.serving = ix, ix

	if w.mapped {
		if err := os.MkdirAll(scratchDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(scratchDir, "snap-")
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, func() { os.RemoveAll(dir) })
		s.snapshot = filepath.Join(dir, "gen.flix")
		f, err := os.Create(s.snapshot)
		if err != nil {
			return nil, err
		}
		err = s.writeSnapshot(f, sl)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("write snapshot: %w", err)
		}
		if s.serving, err = s.open(sl, 0, -1); err != nil {
			return nil, err
		}
	}

	if w.shards == 0 {
		s.srv = server.New(s.serving, w.serverConfig())
		if s.front, err = s.listen(s.srv.Handler()); err != nil {
			return nil, err
		}
		s.scrapeURLs = []string{s.front}
	} else {
		urls := make([]string, w.shards)
		for i := range urls {
			cfg := w.serverConfig()
			cfg.Shard = &server.ShardConfig{ID: i, Count: w.shards}
			if urls[i], err = s.listen(server.New(ix, cfg).Handler()); err != nil {
				return nil, err
			}
		}
		rt, err := shard.NewRouter(s.corpus.coll, shard.RouterConfig{
			Shards: urls, DefaultTimeout: 30 * time.Second, MaxLimit: 1 << 20,
		})
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.closers = append(s.closers, cancel)
		rt.Start(ctx)
		if s.front, err = s.listen(rt.Handler()); err != nil {
			return nil, err
		}
		s.scrapeURLs = append(urls, s.front)
	}
	for _, u := range s.scrapeURLs {
		if err := waitHealthy(u); err != nil {
			return nil, err
		}
	}
	ok = true
	return s, nil
}

// liveHeap collects and returns the bytes of heap still in use; it does
// neither and returns 0 unless wanted (a traced run: its set-up is not timed).
func liveHeap(wanted bool) int64 {
	if !wanted {
		return 0
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// writeSnapshot writes the built index in the format the workload serves:
// compressed sections when mapped, raw otherwise.
func (s *stack) writeSnapshot(w io.Writer, sl *spanLog) error {
	sp := sl.begin("flix.Index.WriteSnapshotV2With", 0, -1, false)
	t0 := time.Now()
	n, err := s.built.WriteSnapshotV2With(w, flix.SnapshotV2Options{Compress: s.w.mapped})
	s.snapshotWrite = time.Since(t0)
	sl.end(sp)
	s.snapshotBytes = n
	return err
}

// open maps the served snapshot as a fresh index generation.
func (s *stack) open(sl *spanLog, parent int64, op int) (*flix.Index, error) {
	sp := sl.begin("flix.OpenSnapshotWith", parent, op, false)
	ix, err := flix.OpenSnapshotWith(s.corpus.coll, s.snapshot, flix.OpenOptions{Mmap: true})
	sl.end(sp)
	if err != nil {
		return nil, fmt.Errorf("open snapshot: %w", err)
	}
	return ix, nil
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy (last error: %v)", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
