package server

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dblp"
	"repro/internal/flix"
)

// benchServer builds a DBLP-style corpus and wraps it in a Server, so later
// PRs have a serving-path baseline (HTTP parsing + admission + evaluation +
// JSON encoding), not just library-call numbers.
func benchServer(b *testing.B, docs int) (*Server, *dblp.Collection) {
	b.Helper()
	corpus := dblp.Generate(dblp.Scaled(docs))
	coll := corpus.BuildGraph()
	ix, err := flix.Build(coll, flix.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return New(ix, Config{MaxInFlight: 256}), corpus
}

// BenchmarkServeDescendantsHTTP measures full-stack throughput over real
// HTTP connections with concurrent clients rotating across start documents.
func BenchmarkServeDescendantsHTTP(b *testing.B) {
	s, corpus := benchServer(b, 400)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	urls := make([]string, 32)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/v1/descendants?start=%s&tag=title&k=20",
			ts.URL, corpus.DocName(i*len(corpus.Pubs)/len(urls)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		i := 0
		for pb.Next() {
			resp, err := client.Get(urls[i%len(urls)])
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
			i++
		}
	})
}

// BenchmarkServeDescendantsHandler measures the handler path without TCP:
// admission, evaluation, cache and JSON encoding via httptest recorders.
func BenchmarkServeDescendantsHandler(b *testing.B) {
	s, corpus := benchServer(b, 400)
	h := s.Handler()
	paths := make([]string, 32)
	for i := range paths {
		paths[i] = fmt.Sprintf("/v1/descendants?start=%s&tag=title&k=20",
			corpus.DocName(i*len(corpus.Pubs)/len(paths)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			req := httptest.NewRequest(http.MethodGet, paths[i%len(paths)], nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Errorf("status %d", rec.Code)
				return
			}
			i++
		}
	})
}

// BenchmarkServeRankedQueryHandler covers the /v1/query path: parse, ranked
// top-k evaluation, JSON encoding.
func BenchmarkServeRankedQueryHandler(b *testing.B) {
	s, _ := benchServer(b, 200)
	h := s.Handler()
	path := "/v1/query?q=//article//author&k=10"
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Errorf("status %d", rec.Code)
				return
			}
		}
	})
}

// swapBench is two indexes over one DBLP-style corpus to swap between, a
// server on the first, and n hot descendants requests (document roots ×
// four tags), hottest first.
type swapBench struct {
	s     *Server
	ixs   [2]*flix.Index
	paths []string
}

func newSwapBench(b *testing.B, n int) *swapBench {
	b.Helper()
	corpus := dblp.Generate(dblp.Scaled(400))
	coll := corpus.BuildGraph()
	sb := &swapBench{}
	for i := range sb.ixs {
		var err error
		if sb.ixs[i], err = flix.Build(coll, flix.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	sb.s = New(sb.ixs[0], Config{MaxInFlight: 256})
	tags := []string{"title", "author", "cite", "year"}
	for i := 0; i < n; i++ {
		sb.paths = append(sb.paths, fmt.Sprintf("/v1/descendants?start=%s&tag=%s&k=20",
			corpus.DocName((i/len(tags))%len(corpus.Pubs)), tags[i%len(tags)]))
	}
	// Coldest first, so the cache's LRU order is the popularity order.
	for i := n - 1; i >= 0; i-- {
		sb.get(b, i)
	}
	return sb
}

func (sb *swapBench) get(b *testing.B, i int) {
	rec := httptest.NewRecorder()
	sb.s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, sb.paths[i], nil))
	if rec.Code != http.StatusOK {
		b.Errorf("%s: status %d", sb.paths[i], rec.Code)
	}
}

// awaitWarm blocks until the serving generation's cache is warm.  (To run
// these benchmarks on a tree that warms inside Install, make it a no-op.)
func (sb *swapBench) awaitWarm() { <-sb.s.gen.Load().warmDone }

// BenchmarkInstall measures what a caller of Install waits for, by the size
// of the hot set the outgoing generation leaves behind.  Install publishes
// and returns; the warm-up it starts is awaited, and its garbage collected,
// off the clock.
func BenchmarkInstall(b *testing.B) {
	for _, hot := range []int{0, 200, 1024} {
		b.Run(fmt.Sprintf("hot=%d", hot), func(b *testing.B) {
			sb := newSwapBench(b, hot)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				sb.s.Install(sb.ixs[(n+1)%2], "bench")
				b.StopTimer()
				sb.awaitWarm()
				runtime.GC() // the warm-up's garbage is not the next Install's to collect
				b.StartTimer()
			}
		})
	}
}

// BenchmarkSwapWindow drives 8 closed-loop clients, Zipf(1.1) over a 512-key
// hot set, through one swap per iteration and reports what they saw: p50 and
// p99 in the steady 200 ms before the swap, the same of the requests issued
// between the Install call and the moment the new generation's cache is
// warm, how long that window was, and how long Install itself took.  Recorded in DESIGN
// §3e, not gated.
func BenchmarkSwapWindow(b *testing.B) {
	const clients, keys = 8, 512
	sb := newSwapBench(b, keys)
	type sample struct{ at, took time.Duration }
	var steady, window []time.Duration
	var install, warm time.Duration
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		stop := make(chan struct{})
		samples := make([][]sample, clients)
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := range samples {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				zipf := rand.NewZipf(rand.New(rand.NewSource(int64(n*clients+c))), 1.1, 1, keys-1)
				for {
					select {
					case <-stop:
						return
					default:
					}
					at := time.Since(t0)
					sb.get(b, int(zipf.Uint64()))
					samples[c] = append(samples[c], sample{at, time.Since(t0) - at})
				}
			}(c)
		}
		time.Sleep(200 * time.Millisecond)
		called := time.Since(t0)
		sb.s.Install(sb.ixs[(n+1)%2], "bench")
		live := time.Since(t0)
		sb.awaitWarm()
		warmAt := time.Since(t0)
		close(stop)
		wg.Wait()
		install += live - called
		warm += warmAt - called
		for _, ss := range samples {
			for _, sm := range ss {
				switch {
				case sm.at < called:
					steady = append(steady, sm.took)
				case sm.at < warmAt:
					window = append(window, sm.took)
				}
			}
		}
	}
	b.StopTimer()
	pct := func(d []time.Duration, p int) float64 {
		if len(d) == 0 {
			return 0
		}
		slices.Sort(d)
		return float64(d[len(d)*p/100].Microseconds())
	}
	b.ReportMetric(pct(steady, 50), "steady-p50-µs")
	b.ReportMetric(pct(window, 50), "swap-p50-µs")
	b.ReportMetric(pct(steady, 99), "steady-p99-µs")
	b.ReportMetric(pct(window, 99), "swap-p99-µs")
	b.ReportMetric(float64(len(window))/float64(b.N), "swap-requests/op")
	b.ReportMetric(float64(warm.Microseconds())/1e3/float64(b.N), "time-to-warm-ms")
	b.ReportMetric(float64(install.Microseconds())/1e3/float64(b.N), "install-ms")
}
