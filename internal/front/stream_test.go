package front

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// echoFront serves /echo as a stream of "echo/1", whose records are lines
// answered by themselves; it sends on got when a stream has a record's
// first byte in hand.
func echoFront(t *testing.T, got chan<- struct{}) (*Front, *httptest.Server) {
	t.Helper()
	f := stubFront(t, &stubTier{}).(*Front)
	f.Handle("/echo", func(w http.ResponseWriter, r *http.Request) {
		f.Upgrade(w, r, "echo/1", func(st *Stream) {
			for st.Next() {
				got <- struct{}{}
				line, err := st.R.ReadString('\n')
				if err != nil || st.Write([]byte(line)) != nil {
					return
				}
			}
		})
	})
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return f, ts
}

// echoStream is the client side of one upgraded connection.
type echoStream struct {
	nc net.Conn
	br *bufio.Reader
}

// dialEcho upgrades a connection to the front at url and returns the
// upgrade's status; the stream is usable when it is 101.
func dialEcho(t *testing.T, url, protocol string) (*echoStream, int) {
	t.Helper()
	nc, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	fmt.Fprintf(nc, "GET /echo HTTP/1.1\r\nHost: f\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", protocol)
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	return &echoStream{nc: nc, br: br}, resp.StatusCode
}

// closed reports whether the peer closed the stream without another byte.
func (es *echoStream) closed() bool {
	_, err := es.br.ReadByte()
	return errors.Is(err, io.EOF)
}

// TestStreamUpgradeRequired: a request without the upgrade, or asking for
// another protocol, is answered 426 naming the protocol, and counted as a
// client error.
func TestStreamUpgradeRequired(t *testing.T) {
	f, ts := echoFront(t, make(chan struct{}, 1))
	resp, err := http.Post(ts.URL+"/echo", "text/plain", strings.NewReader("hi\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != "echo/1" {
		t.Errorf("POST without the upgrade: status %d, Upgrade %q, want 426 naming echo/1", resp.StatusCode, resp.Header.Get("Upgrade"))
	}
	if _, status := dialEcho(t, ts.URL, "echo/2"); status != http.StatusUpgradeRequired {
		t.Errorf("upgrade to another protocol: status %d, want 426", status)
	}
	if got := f.ClientErrors.Load(); got != 2 {
		t.Errorf("%d client errors counted, want 2", got)
	}
}

// TestStreamDrainMidRecord: a drain that starts while a stream holds the
// first byte of a record lets it answer that record and then closes it; a
// stream waiting for its next record closes at once.  DrainStreams returns
// once every stream's serve has returned, and a later upgrade is refused
// with 503.
func TestStreamDrainMidRecord(t *testing.T) {
	got := make(chan struct{}, 1)
	f, ts := echoFront(t, got)
	busy, _ := dialEcho(t, ts.URL, "echo/1")
	idle, _ := dialEcho(t, ts.URL, "echo/1")
	if n := f.Streams(); n != 2 {
		t.Fatalf("%d streams served, want 2", n)
	}
	busy.nc.Write([]byte("hel")) //nolint:errcheck
	<-got
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- f.DrainStreams(ctx)
	}()
	if !idle.closed() {
		t.Error("a stream waiting for a record was not closed by the drain")
	}
	select {
	case err := <-drained:
		t.Fatalf("DrainStreams returned (%v) while a record was in hand", err)
	default:
	}
	busy.nc.Write([]byte("lo\n")) //nolint:errcheck
	if line, err := busy.br.ReadString('\n'); err != nil || line != "hello\n" {
		t.Fatalf("the record in hand was answered %q, %v; want hello", line, err)
	}
	if !busy.closed() {
		t.Error("the stream stayed open after answering its record in the drain")
	}
	if err := <-drained; err != nil {
		t.Errorf("DrainStreams: %v", err)
	}
	if n := f.Streams(); n != 0 {
		t.Errorf("%d streams served after the drain, want 0", n)
	}
	if _, status := dialEcho(t, ts.URL, "echo/1"); status != http.StatusServiceUnavailable {
		t.Errorf("upgrade after the drain: status %d, want 503", status)
	}
}

// TestStreamDrainDeadline: a stream whose record never completes is closed
// when the drain's ctx ends, and DrainStreams returns ctx.Err() only after
// its serve has returned.
func TestStreamDrainDeadline(t *testing.T) {
	got := make(chan struct{}, 1)
	f, ts := echoFront(t, got)
	stuck, _ := dialEcho(t, ts.URL, "echo/1")
	stuck.nc.Write([]byte("never ends")) //nolint:errcheck
	<-got
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := f.DrainStreams(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("DrainStreams past its deadline: %v, want context.DeadlineExceeded", err)
	}
	if n := f.Streams(); n != 0 {
		t.Errorf("%d streams served after DrainStreams returned, want 0", n)
	}
	if !stuck.closed() {
		t.Error("the stuck stream was not closed")
	}
}
