package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flix"
	"repro/internal/meta"
	"repro/internal/query"
	"repro/internal/rebuild"
	"repro/internal/tc"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

// buildQuerySpecs takes its expected answers from the transitive closure,
// which is an oracle, not a strategy the server is deployed with.
func init() { meta.Registry["tc"] = tc.Strategy }

// tortureCollection is the linked (cyclic, cross-document) family: the
// worst case for hot-swapping because every configuration partitions it
// differently and queries cross runtime links.
func tortureCollection(t testing.TB) *xmlgraph.Collection {
	t.Helper()
	return testutil.Generate(testutil.Linked, 11, 25, 18, 50)
}

// swapConfigs are the configurations the torture rotates through — every
// decomposition the engine supports, so consecutive generations disagree
// about meta documents, strategies, and runtime links.
func swapConfigs() []flix.Config {
	return []flix.Config{
		{Kind: flix.Hybrid, PartitionSize: 60},
		{Kind: flix.UnconnectedHOPI, PartitionSize: 50},
		{Kind: flix.MaximalPPO},
		{Kind: flix.Naive},
	}
}

// descSpec is one descendants request with its BFS ground truth: the set of
// reachable tagged nodes with their true shortest distances.  Any correct
// index generation must return exactly this node set, with distances that
// are valid path lengths (>= the true shortest).
type descSpec struct {
	url   string
	start xmlgraph.NodeID
	tag   string
	want  map[xmlgraph.NodeID]int32
}

// wireResult is one result as the wire carries it.
type wireResult struct {
	Node xmlgraph.NodeID `json:"node"`
	Dist int32           `json:"dist"`
}

// check holds one complete answer to the ground truth.
func (spec descSpec) check(results []wireResult) error {
	if len(results) != len(spec.want) {
		return fmt.Errorf("%d results, want %d", len(results), len(spec.want))
	}
	seen := make(map[xmlgraph.NodeID]bool, len(results))
	for _, r := range results {
		td, ok := spec.want[r.Node]
		switch {
		case !ok:
			return fmt.Errorf("unexpected node %d", r.Node)
		case r.Dist < td:
			return fmt.Errorf("node %d dist %d below true %d", r.Node, r.Dist, td)
		case seen[r.Node]:
			return fmt.Errorf("duplicate node %d", r.Node)
		}
		seen[r.Node] = true
	}
	return nil
}

// querySpec is one ranked-path request with the match set computed once on
// a monolithic transitive-closure index — the exact reference every
// configuration must reproduce.
type querySpec struct {
	url  string
	want map[xmlgraph.NodeID]bool
}

func buildDescSpecs(t *testing.T, coll *xmlgraph.Collection, base string) []descSpec {
	t.Helper()
	var specs []descSpec
	tags := []string{"a", "b", "c", "d", "e"}
	for d := 0; d < coll.NumDocs() && len(specs) < 40; d++ {
		root := coll.Doc(xmlgraph.DocID(d)).Root
		trueDist := coll.BFSDistances(root)
		for _, tag := range tags {
			want := make(map[xmlgraph.NodeID]int32)
			for n := range trueDist {
				if trueDist[n] > 0 && coll.Tag(xmlgraph.NodeID(n)) == tag {
					want[xmlgraph.NodeID(n)] = trueDist[n]
				}
			}
			if len(want) == 0 {
				continue
			}
			specs = append(specs, descSpec{
				url:   fmt.Sprintf("%s/v1/descendants?start=%d&tag=%s&k=100000", base, root, tag),
				start: root,
				tag:   tag,
				want:  want,
			})
		}
	}
	if len(specs) < 8 {
		t.Fatalf("only %d non-empty descendants specs, want >= 8", len(specs))
	}
	return specs
}

func buildQuerySpecs(t *testing.T, coll *xmlgraph.Collection, base string) []querySpec {
	t.Helper()
	// The reference evaluator runs on the full transitive closure of the
	// whole collection as one meta document: no entry points, no runtime
	// links, exact distances — the oracle of PR 3's differential harness.
	tcIx, err := flix.Build(coll, flix.Config{Kind: flix.Monolithic, Strategy: "tc"})
	if err != nil {
		t.Fatal(err)
	}
	var specs []querySpec
	for _, expr := range []string{"//a//b", "//b//c", "//a//c//d", "//e//a"} {
		pq, err := query.Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		eval := &query.Evaluator{Index: tcIx, MaxResults: 100000}
		want := make(map[xmlgraph.NodeID]bool)
		for _, m := range eval.EvaluateTopK(pq, 100000) {
			want[m.Node] = true
		}
		if len(want) == 0 {
			continue
		}
		specs = append(specs, querySpec{
			url:  fmt.Sprintf("%s/v1/query?q=%s&k=100000", base, url.QueryEscape(expr)),
			want: want,
		})
	}
	if len(specs) < 2 {
		t.Fatalf("only %d non-empty query specs, want >= 2", len(specs))
	}
	return specs
}

// wireResponse is the part of a query/descendants response the torture
// verifies.
type wireResponse struct {
	Results    []wireResult `json:"results"`
	TimedOut   bool         `json:"timedOut"`
	Generation uint64       `json:"generation"`
}

// getWire fetches one query response the torture way.
func getWire(t *testing.T, url string) wireResponse {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out wireResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, decode error %v", url, resp.StatusCode, err)
	}
	return out
}

// holdWarmer makes the warmer of the next Install wait until release is
// called.  A warmer starts by waiting for its predecessor's, so the serving
// generation's closed warmDone is exchanged for an open one; that is only
// sound on a quiet server (nothing else reads the field) whose own warmer
// has exited.
func holdWarmer(t *testing.T, s *Server) (release func()) {
	t.Helper()
	g := s.gen.Load()
	if g.warming() {
		t.Fatal("holdWarmer: the serving generation is still warming")
	}
	gate := make(chan struct{})
	g.warmDone = gate
	return sync.OnceFunc(func() { close(gate) })
}

// awaitWarm polls /statsz until the serving generation reports its cache
// warm, and returns that document.
func awaitWarm(t *testing.T, base string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats := getJSON(t, base+"/statsz", 200)
		if stats["generation"].(map[string]any)["warming"] == false {
			return stats
		}
		if time.Now().After(deadline) {
			t.Fatalf("generation still warming after 10s: %v", stats["generation"])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSwapTorture hammers /v1/descendants and /v1/query from N goroutines
// while the index is hot-swapped M times under their feet, and asserts the
// swaps are invisible: every response is 200 (or an honest 429), every
// result set matches the BFS/transitive-closure oracle regardless of which
// generation served it, the generation tag is monotone per client, and the
// post-swap counters are exact.
func TestSwapTorture(t *testing.T) {
	coll := tortureCollection(t)
	cfgs := swapConfigs()
	ix0, err := flix.Build(coll, cfgs[len(cfgs)-1]) // start on Naive
	if err != nil {
		t.Fatal(err)
	}
	s := New(ix0, Config{
		MaxInFlight:    256,
		DefaultTimeout: 10 * time.Second,
		DefaultLimit:   1 << 20,
		MaxLimit:       1 << 20,
		CacheSize:      256,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	descSpecs := buildDescSpecs(t, coll, ts.URL)
	querySpecs := buildQuerySpecs(t, coll, ts.URL)

	var (
		reqs     atomic.Int64 // verified 200 responses
		shed     atomic.Int64 // tolerated 429s
		mu       sync.Mutex
		failures []string
	)
	report := func(format string, args ...any) {
		mu.Lock()
		if len(failures) < 10 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	const workers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	client := ts.Client()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var lastGen uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				useQuery := (id+i)%3 == 0
				var u string
				if useQuery {
					u = querySpecs[(id+i)%len(querySpecs)].url
				} else {
					u = descSpecs[(id+i)%len(descSpecs)].url
				}
				resp, err := client.Get(u)
				if err != nil {
					report("worker %d: %v", id, err)
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
					shed.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					report("worker %d: GET %s: status %d (%s)", id, u, resp.StatusCode, body)
					return
				}
				var out wireResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					report("worker %d: GET %s: bad JSON: %v", id, u, err)
					return
				}
				if out.TimedOut {
					report("worker %d: GET %s timed out", id, u)
					return
				}
				if out.Generation < lastGen {
					report("worker %d: generation went backwards %d -> %d", id, lastGen, out.Generation)
					return
				}
				lastGen = out.Generation
				if useQuery {
					spec := querySpecs[(id+i)%len(querySpecs)]
					if len(out.Results) != len(spec.want) {
						report("worker %d: %s: %d matches, want %d (gen %d)",
							id, u, len(out.Results), len(spec.want), out.Generation)
						return
					}
					for _, r := range out.Results {
						if !spec.want[r.Node] {
							report("worker %d: %s: unexpected match node %d (gen %d)", id, u, r.Node, out.Generation)
							return
						}
					}
				} else {
					if err := descSpecs[(id+i)%len(descSpecs)].check(out.Results); err != nil {
						report("worker %d: %s: %v (gen %d)", id, u, err, out.Generation)
						return
					}
				}
				reqs.Add(1)
			}
		}(w)
	}

	// Fire the hot-swaps, each only after the workers have verified at
	// least 20 more responses since the previous one — that guarantees
	// real traffic overlapped every generation.
	const liveSwaps = 4
	for m := 0; m < liveSwaps; m++ {
		floor := reqs.Load() + 20
		deadline := time.Now().Add(10 * time.Second)
		for reqs.Load() < floor {
			if time.Now().After(deadline) {
				t.Fatalf("swap %d: workers stalled at %d verified responses", m+1, reqs.Load())
			}
			time.Sleep(time.Millisecond)
		}
		ix, err := flix.Build(coll, cfgs[m%len(cfgs)])
		if err != nil {
			t.Fatalf("building generation for swap %d: %v", m+1, err)
		}
		s.Install(ix, fmt.Sprintf("torture swap %d", m+1))
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	for _, f := range failures {
		t.Error(f)
	}
	mu.Unlock()
	if t.Failed() {
		t.FailNow()
	}
	t.Logf("torture: %d verified responses, %d shed, %d live swaps", reqs.Load(), shed.Load(), liveSwaps)

	// One more swap on a quiet server, with its warmer held back: Install
	// must return with the generation live and not one query evaluated, and
	// an answer served before the cache is warm must be as correct as any.
	awaitWarm(t, ts.URL)
	release := holdWarmer(t, s)
	defer release()
	lastIx, err := flix.Build(coll, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	installed := make(chan struct{})
	go func() {
		defer close(installed)
		s.Install(lastIx, "post-torture swap")
	}()
	select {
	case <-installed:
	case <-time.After(10 * time.Second):
		t.Fatal("Install waits for the cache to warm: it must publish first and warm behind")
	}
	wantGen := uint64(1 + liveSwaps + 1)
	if got := s.Generation(); got != wantGen {
		t.Errorf("Generation() = %d, want %d", got, wantGen)
	}
	if got := s.swaps.Load(); got != liveSwaps+1 {
		t.Errorf("Swaps() = %d, want %d", got, liveSwaps+1)
	}
	cold := getJSON(t, ts.URL+"/statsz", 200)
	if gen := cold["generation"].(map[string]any); gen["warming"] != true || gen["warmedQueries"].(float64) != 0 {
		t.Errorf("statsz generation right after Install = %v, want warming with nothing warmed yet", gen)
	}
	if got := cold["queryStats"].(map[string]any)["queries"].(float64); got != 0 {
		t.Errorf("Install evaluated %v queries on the new generation before returning, want 0", got)
	}
	early := getWire(t, descSpecs[0].url)
	if early.Generation != wantGen {
		t.Errorf("response right after Install is from generation %d, want %d", early.Generation, wantGen)
	}
	if err := descSpecs[0].check(early.Results); err != nil {
		t.Errorf("response served before the cache was warm: %v", err)
	}

	// Warm, the counters must be exact.  The warmer evaluates every
	// inherited key once, except the one the early request stored before it
	// got there, and stores without lookups: entries == engine queries ==
	// warmedQueries + 1, one miss, no hit.  K probes with keys the torture
	// never used then add exactly K misses and K entries, and one repeat is
	// exactly one hit.
	release()
	stats0 := awaitWarm(t, ts.URL)
	gen0 := stats0["generation"].(map[string]any)
	warmed := gen0["warmedQueries"].(float64)
	if warmed <= 0 {
		t.Errorf("warmedQueries = %v after a traffic-heavy generation, want > 0", warmed)
	}
	if got := gen0["warmPending"].(float64); got != 0 {
		t.Errorf("warmPending = %v on a warm generation, want 0", got)
	}
	warmed++ // from here on: every inherited key, however it got in
	cache0 := stats0["cache"].(map[string]any)
	if got := cache0["entries"].(float64); got != warmed {
		t.Errorf("post-swap cache entries = %v, want warmedQueries+1 = %v", got, warmed)
	}
	if h, m := cache0["hits"].(float64), cache0["misses"].(float64); h != 0 || m != 1 {
		t.Errorf("post-swap cache hits/misses = %v/%v, want 0/1", h, m)
	}
	if got := stats0["queryStats"].(map[string]any)["queries"].(float64); got != warmed {
		t.Errorf("post-swap queryStats.queries = %v, want warmedQueries+1 = %v", got, warmed)
	}

	// The probes use a tag no torture spec ever queried, so their keys
	// cannot have been warmed.
	const K = 7
	var freshURLs [K]string
	for i := 0; i < K; i++ {
		freshURLs[i] = fmt.Sprintf("%s/v1/descendants?start=%d&tag=zzz&k=100", ts.URL, i)
	}
	for i := 0; i < K; i++ {
		got := getJSON(t, freshURLs[i], 200)
		if gen := uint64(got["generation"].(float64)); gen != wantGen {
			t.Errorf("post-swap response generation = %d, want %d", gen, wantGen)
		}
	}
	getJSON(t, freshURLs[0], 200) // repeat: must be the one cache hit

	stats := getJSON(t, ts.URL+"/statsz", 200)
	qs := stats["queryStats"].(map[string]any)
	if got := qs["queries"].(float64); got != warmed+K {
		t.Errorf("queryStats.queries = %v, want exactly %v", got, warmed+K)
	}
	cache := stats["cache"].(map[string]any)
	if got := cache["entries"].(float64); got != warmed+K {
		t.Errorf("cache entries = %v, want exactly %v", got, warmed+K)
	}
	if got := cache["misses"].(float64); got != K+1 {
		t.Errorf("cache misses = %v, want exactly %d", got, K+1)
	}
	if got := cache["hits"].(float64); got != 1 {
		t.Errorf("cache hits = %v, want exactly 1", got)
	}
	gen := stats["generation"].(map[string]any)
	if got := gen["current"].(float64); uint64(got) != wantGen {
		t.Errorf("statsz generation.current = %v, want %d", got, wantGen)
	}
	if got := gen["swaps"].(float64); got != liveSwaps+1 {
		t.Errorf("statsz generation.swaps = %v, want %d", got, liveSwaps+1)
	}
	if got := gen["reason"].(string); got != "post-torture swap" {
		t.Errorf("statsz generation.reason = %q, want %q", got, "post-torture swap")
	}
	health := getJSON(t, ts.URL+"/healthz", 200)
	if got := health["generation"].(float64); uint64(got) != wantGen {
		t.Errorf("healthz generation = %v, want %d", got, wantGen)
	}
}

// TestReadiness covers the pending-server lifecycle: the port serves
// immediately, query traffic and /healthz answer 503 until the first
// generation is installed, and flip to 200 afterwards.
func TestReadiness(t *testing.T) {
	coll := tortureCollection(t)
	s := NewPending(coll, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if s.Ready() {
		t.Fatal("pending server reports Ready")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pending /healthz status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("pending /healthz has no Retry-After header")
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["ready"] != false || health["status"] != "starting" {
		t.Errorf("pending /healthz body = %v", health)
	}

	// Query endpoints shed with 503 (not 429, not a panic) while pending.
	for _, path := range []string{
		"/v1/descendants?start=0&tag=a",
		"/v1/connected?from=0&to=1",
		"/v1/query?q=//a//b",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("pending %s status = %d, want 503", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Errorf("pending %s has no Retry-After header", path)
		}
	}
	stats := getJSON(t, ts.URL+"/statsz", 200)
	if stats["ready"] != false {
		t.Errorf("pending /statsz ready = %v, want false", stats["ready"])
	}
	if got := stats["server"].(map[string]any)["notReady"].(float64); got != 3 {
		t.Errorf("notReady counter = %v, want 3", got)
	}

	// Install flips everything to ready atomically.
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Naive})
	if err != nil {
		t.Fatal(err)
	}
	if gen := s.Install(ix, "initial index"); gen != 1 {
		t.Errorf("first Install returned generation %d, want 1", gen)
	}
	if !s.Ready() {
		t.Error("server not Ready after Install")
	}
	health = getJSON(t, ts.URL+"/healthz", 200)
	if health["ready"] != true || health["generation"].(float64) != 1 {
		t.Errorf("ready /healthz body = %v", health)
	}
	if got := health["swaps"].(float64); got != 0 {
		t.Errorf("swaps after initial install = %v, want 0", got)
	}
	got := getJSON(t, ts.URL+"/v1/descendants?start=0&tag=a&k=100", 200)
	if got["generation"].(float64) != 1 {
		t.Errorf("first query generation = %v, want 1", got["generation"])
	}
}

// errReindexer scripts the admin endpoint's error paths.
type errReindexer struct{ err error }

func (e errReindexer) Plan() rebuild.Plan                 { return rebuild.Plan{} }
func (e errReindexer) Reindex(bool) (rebuild.Plan, error) { return rebuild.Plan{}, e.err }
func (e errReindexer) Status() rebuild.Status             { return rebuild.Status{} }

// TestAdminReindex drives POST /v1/admin/reindex through its whole surface:
// method guard, unconfigured 501, dry-run planning, forced rebuild+swap,
// steady-state no-op, and the 409/500 error mapping.
func TestAdminReindex(t *testing.T) {
	coll := tortureCollection(t)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	s := New(ix, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	adminURL := ts.URL + "/v1/admin/reindex"

	post := func(u string, wantStatus int) map[string]any {
		t.Helper()
		resp, err := http.Post(u, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST %s: status %d, want %d (%s)", u, resp.StatusCode, wantStatus, body)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("POST %s: bad JSON: %v", u, err)
		}
		return out
	}

	// GET is refused with the Allow header.
	resp, err := http.Get(adminURL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q, want POST", allow)
	}

	// No reindexer wired: 501, not a panic.
	post(adminURL, http.StatusNotImplemented)

	mgr := rebuild.New(coll, s, rebuild.Config{MinQueries: 2})
	s.SetReindexer(mgr)

	// Dry run below the signal threshold: plan only, nothing swapped.
	out := post(adminURL+"?dry=1", 200)
	if out["dryRun"] != true {
		t.Errorf("dry response = %v", out)
	}
	plan := out["plan"].(map[string]any)
	if plan["rebuild"] != false {
		t.Errorf("dry plan with no load wants a rebuild: %v", plan)
	}
	if s.Generation() != 1 {
		t.Errorf("dry run changed the generation to %d", s.Generation())
	}

	// Forced: builds with the planned config and swaps.
	out = post(adminURL+"?force=1", 200)
	if out["swapped"] != true || out["generation"].(float64) != 2 {
		t.Errorf("forced response = %v, want swapped=true generation=2", out)
	}
	if _, ok := out["warming"].(bool); !ok {
		t.Errorf("forced response = %v, want a boolean warming beside generation", out)
	}
	if s.Generation() != 2 || s.swaps.Load() != 1 {
		t.Errorf("after force: generation %d swaps %d, want 2/1", s.Generation(), s.swaps.Load())
	}
	// The manager shows up in /statsz once wired.
	stats := getJSON(t, ts.URL+"/statsz", 200)
	rx := stats["reindex"].(map[string]any)
	if rx["rebuilds"].(float64) != 1 {
		t.Errorf("statsz reindex.rebuilds = %v, want 1", rx["rebuilds"])
	}

	// Unforced with a steady load: the planner keeps the index.
	out = post(adminURL, 200)
	if out["swapped"] != false {
		t.Errorf("steady unforced response = %v, want swapped=false", out)
	}
	if s.Generation() != 2 {
		t.Errorf("steady unforced reindex changed the generation to %d", s.Generation())
	}

	// Error mapping: ErrBusy -> 409, anything else -> 500.
	s.SetReindexer(errReindexer{err: rebuild.ErrBusy})
	post(adminURL, http.StatusConflict)
	s.SetReindexer(errReindexer{err: errors.New("boom")})
	post(adminURL, http.StatusInternalServerError)
}
