package shard_test

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/shard"
)

// recordProxy stands between a router and one shard on a port of its own:
// plain HTTP (health probes, /statsz) passes through byte for byte, and on
// an eval stream it hands every request record to onRecord, which may
// answer it in the shard's place, and every answer the shard gives to
// onAnswer, which may rewrite it.  The fault hooks of the cluster harness
// sit here, at the eval stream's own granularity.
type recordProxy struct {
	URL string
	// onRecord sees each request record; answered means it answered in
	// the shard's place with status and payload.  nil passes every record.
	onRecord func(reqID, frame []byte) (status int, payload []byte, answered bool)
	// onAnswer rewrites the shard's answer to a record; nil passes it.
	onAnswer func(status int, payload []byte) (int, []byte)

	ln     net.Listener
	target string
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// newRecordProxy listens in front of the shard served at shardURL; the
// hooks are set before the router is pointed at URL.
func newRecordProxy(t testing.TB, shardURL string) *recordProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &recordProxy{URL: "http://" + ln.Addr().String(), ln: ln,
		target: strings.TrimPrefix(shardURL, "http://"), conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			if !p.track(nc) {
				nc.Close()
				continue
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				defer p.untrack(nc)
				p.serve(nc)
			}()
		}
	}()
	t.Cleanup(p.close)
	return p
}

func (p *recordProxy) track(nc net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conns == nil {
		return false
	}
	p.conns[nc] = struct{}{}
	return true
}

func (p *recordProxy) untrack(nc net.Conn) {
	p.mu.Lock()
	delete(p.conns, nc)
	p.mu.Unlock()
	nc.Close()
}

// close stops listening, closes every connection and waits for their
// goroutines.
func (p *recordProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for nc := range p.conns {
		nc.Close()
	}
	p.conns = nil
	p.mu.Unlock()
	p.wg.Wait()
}

// serve proxies one router connection: its first request decides whether
// it is an eval stream.
func (p *recordProxy) serve(down net.Conn) {
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer up.Close()
	downR := bufio.NewReader(down)
	req, err := http.ReadRequest(downR)
	if err != nil {
		return
	}
	if err := req.Write(up); err != nil {
		return
	}
	if !strings.EqualFold(req.Header.Get("Upgrade"), shard.EvalProtocol) {
		go func() {
			io.Copy(up, downR) //nolint:errcheck
			up.Close()
		}()
		io.Copy(down, up) //nolint:errcheck
		return
	}
	upR := bufio.NewReader(up)
	resp, err := http.ReadResponse(upR, req)
	if err != nil {
		return
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		resp.Write(down) //nolint:errcheck
		return
	}
	if _, err := io.WriteString(down, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+shard.EvalProtocol+"\r\n\r\n"); err != nil {
		return
	}
	requests, answers := shard.NewRecordReader(downR), shard.NewRecordReader(upR)
	var out []byte
	for {
		reqID, frame, err := requests.Request()
		if err != nil {
			return
		}
		status, payload, answered := 0, []byte(nil), false
		if p.onRecord != nil {
			status, payload, answered = p.onRecord(reqID, frame)
		}
		if !answered {
			out = binary.BigEndian.AppendUint32(out[:0], uint32(1+len(reqID)+len(frame)))
			out = append(append(append(out, byte(len(reqID))), reqID...), frame...)
			if _, err := up.Write(out); err != nil {
				return
			}
			if status, payload, err = answers.Answer(); err != nil {
				return
			}
			if p.onAnswer != nil {
				status, payload = p.onAnswer(status, payload)
			}
		}
		if _, err := down.Write(shard.AppendAnswer(out[:0], status, payload)); err != nil {
			return
		}
	}
}
