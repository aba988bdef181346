package main

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The reference clock.
//
// On a shared box the same code runs at a speed that drifts by a tenth to a
// half from one minute to the next (neighbours on the host compete for the
// cores and the memory system; the guest sees no steal time), which is more
// than the regressions the benchmark has to resolve.  A run therefore times,
// before and after every lap and every set-up, a fixed reference lap, and
// reports its timings on the reference clock: multiplied by refNominal over
// the median reference lap of that phase of the run.  One second on the
// reference clock is one second of wall time whenever the reference lap takes
// exactly refNominal.
//
// The reference lap has two halves, about equally long on a quiet box.  The
// walk follows dependent loads through 64 MiB and does nothing but wait for
// memory.  The HTTP half is a miniature of the system under test: two
// keep-alive clients on loopback ask a net/http server for priority-queue
// traversals of a fixed random graph, each answered as indented JSON.
// Interference slows the walk less than it slows the workloads and the HTTP
// half more; their sum tracks all four workloads about twice as closely as
// either half (README.md has the figures).
//
// The reference lap is the benchmark's own code, uses nothing of the
// repository, and runs in a child process (this binary started with refArg)
// while the measured process is idle, so it shares neither heap nor collector
// nor peak RSS with the system under test.  A change to the system moves the
// scaled numbers exactly as it moves the raw ones; the raw ones are printed
// beside them.

const (
	// refNominal is what one reference lap takes on the reference clock;
	// about what it takes on the 2-core box the benchmark was written on
	// when that is quiet.
	refNominal = 200 * time.Millisecond
	// refArg as the only argument makes the binary serve reference laps.
	refArg = "-reference"

	refSlots = 1 << 24 // length of the walked cycle: 64 MiB of uint32
	refSteps = 600_000 // dependent loads of one walk, per goroutine

	refNodes    = 1 << 20 // graph size: 16 MiB of edges, beyond the L2 caches
	refDegree   = 4
	refPops     = 1000 // traversal steps of one request
	refResults  = 50   // result elements rendered by one request
	refClients  = 2    // as the workloads have, on the two cores
	refRequests = 200  // per client and lap
)

// refCycle returns one random cycle through all slots: cycle[i] is the slot
// visited after slot i.  Sattolo's shuffle from a fixed xorshift sequence
// yields a single cycle.
func refCycle() []uint32 {
	cycle := make([]uint32, refSlots)
	for i := range cycle {
		cycle[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := refSlots - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		cycle[i], cycle[j] = cycle[j], cycle[i]
	}
	return cycle
}

// refWalk times the walking half: one goroutine per client follows the
// cycle for refSteps dependent loads from its own start.
func refWalk(cycle []uint32) time.Duration {
	var wg sync.WaitGroup
	ends := make([]uint32, refClients)
	t0 := time.Now()
	for g := range ends {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := uint32(g * refSlots / refClients)
			for i := 0; i < refSteps; i++ {
				p = cycle[p]
			}
			ends[g] = p // keeps the loads alive
		}(g)
	}
	wg.Wait()
	return time.Since(t0)
}

// refGraph is the fixed graph the reference server traverses: node i has
// the refDegree successors edges[i*refDegree:], each at a distance of 1 to 4.
type refGraph struct {
	edges []uint32
	pool  sync.Pool // *refScratch
}

type refScratch struct {
	seen  []uint32 // seen[n] == stamp: n was queued in this traversal
	stamp uint32
	queue refQueue
}

type refEntry struct{ dist, node uint32 }
type refQueue []refEntry

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	return q[i].dist < q[j].dist || (q[i].dist == q[j].dist && q[i].node < q[j].node)
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEntry)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

func newRefGraph() *refGraph {
	g := &refGraph{edges: make([]uint32, refNodes*refDegree)}
	x := uint64(88172645463325252) // a fixed xorshift sequence
	for i := range g.edges {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		g.edges[i] = uint32(x % refNodes)
	}
	g.pool.New = func() any { return &refScratch{seen: make([]uint32, refNodes)} }
	return g
}

// refResult is one rendered result element, shaped like the servers'.
type refResult struct {
	Node uint32 `json:"node"`
	Tag  string `json:"tag"`
	Doc  string `json:"doc"`
	Text string `json:"text,omitempty"`
	Dist uint32 `json:"dist"`
}

var refTags = []string{"article", "author", "title", "cite", "year", "pages", "journal"}

// ServeHTTP answers /?start=N: the first refResults nodes divisible by 16
// in distance order from N, found by popping at most refPops queue entries.
func (g *refGraph) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start, err := strconv.ParseUint(r.URL.Query().Get("start"), 10, 32)
	if err != nil || start >= refNodes {
		http.Error(w, "bad start", http.StatusBadRequest)
		return
	}
	sc := g.pool.Get().(*refScratch)
	defer g.pool.Put(sc)
	sc.stamp++
	sc.queue = append(sc.queue[:0], refEntry{0, uint32(start)})
	sc.seen[start] = sc.stamp
	results := make([]refResult, 0, 16)
	for pops := 0; pops < refPops && len(sc.queue) > 0 && len(results) < refResults; pops++ {
		e := heap.Pop(&sc.queue).(refEntry)
		if e.node%16 == 0 {
			results = append(results, refResult{
				Node: e.node, Tag: refTags[e.node%uint32(len(refTags))], Dist: e.dist,
				Doc:  "pub" + strconv.Itoa(int(e.node>>5)) + ".xml",
				Text: strings.Repeat("lorem ", int(e.node>>4%8)),
			})
		}
		for i, next := range g.edges[e.node*refDegree : (e.node+1)*refDegree] {
			if sc.seen[next] != sc.stamp {
				sc.seen[next] = sc.stamp
				heap.Push(&sc.queue, refEntry{e.dist + 1 + uint32(i), next})
			}
		}
	}
	body, err := json.MarshalIndent(map[string]any{"results": results, "count": len(results), "timedOut": false}, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n')) //nolint:errcheck // the client's read reports it
}

// serveReference is the child's main: it starts the reference server, then
// runs one reference lap — walk, then HTTP — per line read from in and
// writes the lap's nanoseconds to out, until in ends.
func serveReference(in io.Reader, out io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: newRefGraph()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after Close
	}()
	defer func() {
		hs.Close()
		<-done
	}()
	base := "http://" + ln.Addr().String() + "/?start="
	clients := make([]*http.Client, refClients)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
		defer clients[i].CloseIdleConnections()
	}
	cycle := refCycle()
	for sc := bufio.NewScanner(in); sc.Scan(); {
		walk := refWalk(cycle)
		d, err := refHTTP(clients, base)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(out, int64(walk+d)); err != nil {
			return err
		}
	}
	return nil
}

// refHTTP times the HTTP half: every client sends its refRequests requests,
// closed-loop.  Every lap sends the same requests.
func refHTTP(clients []*http.Client, base string) (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	t0 := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < refRequests; i++ {
				start := (uint64(ci*refRequests+i) * 2654435761) % refNodes
				resp, err := c.Get(base + strconv.FormatUint(start, 10))
				if err != nil {
					errs[ci] = err
					return
				}
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errs[ci] = fmt.Errorf("reference request: status %d: %v", resp.StatusCode, err)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return d, nil
}

// clock is the parent's end of the reference child.
type clock struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startClock() (*clock, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &clock{cmd: exec.Command(exe, refArg)}
	c.cmd.Stderr = os.Stderr
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.out = bufio.NewReader(out)
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("reference child: %w", err)
	}
	return c, nil
}

// lap has the child run one reference lap and returns the seconds it took.
func (c *clock) lap() (float64, error) {
	if _, err := io.WriteString(c.in, "\n"); err != nil {
		return 0, fmt.Errorf("reference child: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference child: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("reference child: %w", err)
	}
	return float64(ns) / 1e9, nil
}

// close ends the child and waits for it.
func (c *clock) close() {
	c.in.Close()
	c.cmd.Wait() //nolint:errcheck // it has nothing left to report
}

// clockScale is the factor that puts the raw durations of a phase on the
// reference clock: nominal over the median of the reference laps run before,
// between and after its measurements.  The drift it corrects is slower than
// a phase, and the median of a dozen reference laps is steadier than the two
// next to any one measurement.
func clockScale(refLaps []float64) float64 {
	return refNominal.Seconds() / median(refLaps)
}
