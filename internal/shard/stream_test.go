package shard_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/flix"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/testutil"
)

// TestEvalRecords: request and answer records round-trip, a request ID
// longer than 64 bytes is left out, and a record that cannot be read —
// past MaxRecord, shorter than its fixed fields, an ID longer than the
// record, a status outside 100..599 — is ErrBadRecord.  A forged length
// sizes no buffer: the reader holds what arrived.
func TestEvalRecords(t *testing.T) {
	req := &shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 4, Dist: 1}}, Tag: "a", K: 3}
	var b []byte
	for _, id := range []string{"", "req-1", strings.Repeat("x", 64), strings.Repeat("y", 65)} {
		b = shard.AppendRequest(b, id, req)
	}
	rr := shard.NewRecordReader(bytes.NewReader(b))
	for _, want := range []string{"", "req-1", strings.Repeat("x", 64), ""} {
		id, frame, err := rr.Request()
		if err != nil || string(id) != want || !bytes.Equal(frame, req.AppendFrame(nil)) {
			t.Errorf("request record: id %q, frame %x, %v; want id %q and the frame", id, frame, err, want)
		}
	}
	if _, _, err := rr.Request(); err != io.EOF {
		t.Errorf("past the last record: %v, want io.EOF", err)
	}

	rr = shard.NewRecordReader(bytes.NewReader(shard.AppendAnswer(nil, http.StatusTooManyRequests, []byte("busy"))))
	if status, payload, err := rr.Answer(); err != nil || status != http.StatusTooManyRequests || string(payload) != "busy" {
		t.Errorf("answer record: %d %q %v", status, payload, err)
	}

	u32 := func(n uint32, rest ...byte) []byte { return append(binary.BigEndian.AppendUint32(nil, n), rest...) }
	for name, tc := range map[string]struct {
		in     []byte
		answer bool
		want   string
	}{
		"oversize request":   {u32(shard.MaxRecord + 1), false, "exceed the limit"},
		"oversize answer":    {u32(1<<32 - 1), true, "exceed the limit"},
		"empty request":      {u32(0), false, "want at least 1"},
		"short answer":       {u32(1, 0), true, "want at least 2"},
		"ID past the record": {u32(3, 5, 'a', 'b'), false, "request ID of 5 bytes"},
		"ID over 64 bytes":   {append(u32(66, 65), make([]byte, 65)...), false, "request ID of 65 bytes"},
		"status 0":           {u32(2, 0, 0), true, "status 0"},
		"status 600":         {u32(2, 2, 88), true, "status 600"},
	} {
		rr := shard.NewRecordReader(bytes.NewReader(tc.in))
		var err error
		if tc.answer {
			_, _, err = rr.Answer()
		} else {
			_, _, err = rr.Request()
		}
		if !errors.Is(err, shard.ErrBadRecord) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want ErrBadRecord naming %q", name, err, tc.want)
		}
	}

	forged := append(u32(shard.MaxRecord), make([]byte, 100)...)
	rr = shard.NewRecordReader(bytes.NewReader(forged))
	if _, _, err := rr.Request(); err != io.ErrUnexpectedEOF {
		t.Errorf("a record cut off: %v, want io.ErrUnexpectedEOF", err)
	}
	if c := rr.BufferCap(); c > 1024 {
		t.Errorf("a forged 64 MiB length over 100 bytes grew the buffer to %d bytes", c)
	}
}

// scriptConn is a hijacked connection whose reads come from a fixed input
// and whose writes are collected.
type scriptConn struct {
	net.Conn // nil: only the methods below are called
	in       io.Reader
	out      bytes.Buffer
	closed   bool
}

func (c *scriptConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *scriptConn) Close() error                     { c.closed = true; return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }

// scriptWriter upgrades to a scriptConn.
type scriptWriter struct {
	*httptest.ResponseRecorder
	c   *scriptConn
	brw *bufio.ReadWriter
}

func (w scriptWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) { return w.c, w.brw, nil }

// FuzzEvalStream: arbitrary bytes after an upgrade, fed to a shard's
// record loop, never panic it; the loop answers whole records and closes
// the stream.  Fed to the record reader the client reads answers with,
// and to the frame decoder behind it, they never panic either, and no
// reader buffer outgrows what it was given.
func FuzzEvalStream(f *testing.F) {
	good := shard.AppendRequest(nil, "req-1", &shard.EvalRequest{Entries: []flix.FrontierEntry{{Node: 0}}, K: 2})
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), good...))
	f.Add(good[:len(good)-1])
	f.Add([]byte{0x04, 0, 0, 1})
	f.Add(shard.AppendAnswer(nil, http.StatusOK, []byte{2, 0, 1, 0}))
	f.Add(shard.AppendAnswer(nil, http.StatusTooManyRequests, []byte("shard at capacity")))

	coll := testutil.Generate(testutil.Linked, 3, 6, 20, 10)
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 20})
	if err != nil {
		f.Fatal(err)
	}
	h := server.New(ix, server.Config{Shard: &server.ShardConfig{ID: 0, Count: 1}, CacheSize: -1}).Handler()
	head := "HTTP/1.1 101 Switching Protocols\r\n"

	f.Fuzz(func(t *testing.T, data []byte) {
		c := &scriptConn{in: bytes.NewReader(data)}
		w := scriptWriter{httptest.NewRecorder(), c, bufio.NewReadWriter(bufio.NewReader(c), bufio.NewWriter(c))}
		r := httptest.NewRequest(http.MethodGet, shard.EvalPath, nil)
		r.Header.Set("Connection", "Upgrade")
		r.Header.Set("Upgrade", shard.EvalProtocol)
		h.ServeHTTP(w, r)
		if !c.closed {
			t.Fatal("the record loop returned without closing the stream")
		}
		out, ok := bytes.CutPrefix(c.out.Bytes(), []byte(head))
		if !ok {
			t.Fatalf("no 101 before the answers: %q", c.out.Bytes())
		}
		_, out, _ = bytes.Cut(out, []byte("\r\n\r\n"))
		answers := shard.NewRecordReader(bytes.NewReader(out))
		for {
			if _, _, err := answers.Answer(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("the shard wrote a broken answer record: %v", err)
			}
		}

		requests, answers := shard.NewRecordReader(bytes.NewReader(data)), shard.NewRecordReader(bytes.NewReader(data))
		for {
			if _, _, err := requests.Request(); err != nil {
				break
			}
		}
		for {
			status, payload, err := answers.Answer()
			if err != nil {
				break
			}
			if status == http.StatusOK {
				var resp shard.EvalResponse
				resp.DecodeFrame(payload) //nolint:errcheck // must not panic
			}
		}
		for _, rr := range []*shard.RecordReader{requests, answers} {
			if c := rr.BufferCap(); c > 2*len(data)+1024 {
				t.Fatalf("a reader given %d bytes holds a %d-byte buffer", len(data), c)
			}
		}
	})
}
