package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// client is one closed-loop caller: a keep-alive connection that sends its
// next request only after the previous reply is complete.
type client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
	sl   *spanLog // nil in an untraced run
}

func newClient(base string, sl *spanLog) *client {
	return &client{
		base: base,
		sl:   sl,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// roundTrip sends one request and returns the status and the body; the
// body is only valid until the next call.
func (c *client) roundTrip(o *op, parent int64, opIdx int) (int, []byte, error) {
	sp := c.sl.begin("client.request", parent, opIdx, false)
	defer c.sl.end(sp)
	var resp *http.Response
	var err error
	if o.body != nil {
		resp, err = c.hc.Post(c.base+o.target, "application/json", bytes.NewReader(o.body))
	} else {
		resp, err = c.hc.Get(c.base + o.target)
	}
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// sample is one timed operation.
type sample struct {
	op int32
	ns int64
}

// lap is the outcome of one pass over the op list.
type lap struct {
	wall    time.Duration
	cpu     time.Duration // process user+sys CPU over the pass
	samples []sample
	failed  int
	// firstErr describes the first failed operation, for the report.
	firstErr error
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// judge decides whether a response answers its op correctly.
type judge func(o *op, status int, body []byte) error

// runLap replays the op list once: client i takes ops i, i+n, i+2n, … and
// works through them in order.
func (s *stack) runLap(clients []*client, ops []op, j judge) lap {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  lap
		cpu0 = cpuTime()
		t0   = time.Now()
	)
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			samples := make([]sample, 0, len(ops)/len(clients)+1)
			var failed int
			var firstErr error
			for i := ci; i < len(ops); i += len(clients) {
				t := time.Now()
				err := s.do(c, &ops[i], i, j)
				samples = append(samples, sample{op: int32(i), ns: int64(time.Since(t))})
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("op %d (%s %s): %w", i, classNames[ops[i].class], ops[i].target, err)
					}
				}
			}
			mu.Lock()
			out.samples = append(out.samples, samples...)
			out.failed += failed
			if out.firstErr == nil {
				out.firstErr = firstErr
			}
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	out.wall = time.Since(t0)
	out.cpu = cpuTime() - cpu0
	return out
}

// do performs one operation.  A reopen op maps the snapshot as a fresh
// generation, installs it and runs the op's queries against it; the retired
// generation is left to its finalizer, as flixd leaves it.
func (s *stack) do(c *client, o *op, idx int, j judge) error {
	if o.class != classReopen {
		return s.request(c, o, idx, 0, j)
	}
	sp := c.sl.begin("op.reopen", 0, idx, false)
	defer c.sl.end(sp)
	parent := c.sl.id(sp)
	ix, err := s.open(c.sl, parent, idx)
	if err != nil {
		return err
	}
	ins := c.sl.begin("server.Install", parent, idx, false)
	s.srv.Install(ix, "reopen")
	c.sl.end(ins)
	for i := range o.items {
		if err := s.request(c, &o.items[i], idx, parent, j); err != nil {
			return err
		}
	}
	return nil
}

func (s *stack) request(c *client, o *op, idx int, parent int64, j judge) error {
	status, body, err := c.roundTrip(o, parent, idx)
	if err != nil {
		return err
	}
	return j(o, status, body)
}

// quickJudge is the check of the timed phase: status 200 and the head and
// tail the verification pass recorded (count and flags), with no JSON
// decoding on the fast path, so client CPU stays small beside the servers'.
func quickJudge(o *op, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, firstLine(body))
	}
	if bytes.HasPrefix(body, o.head) && bytes.HasSuffix(body, o.tail) {
		return nil
	}
	// The layout differs (a trace trailer, another encoder): decode and
	// compare the same fields.
	return sameSummary(o, body)
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	return string(b[:min(len(b), 200)])
}
