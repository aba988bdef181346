package daemon

import (
	"flag"
	"io"
	"testing"
	"time"
)

// TestDeclareFlags: the caller's -addr default is kept, and a command line
// that sets all twelve shared flags lands in the matching fields.
func TestDeclareFlags(t *testing.T) {
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := DeclareFlags(fs, ":8090")
	if f.Addr != ":8090" || f.InFlight != 64 || f.Drain != 15*time.Second {
		t.Fatalf("defaults: %+v", *f)
	}
	err := fs.Parse([]string{
		"-addr", "127.0.0.1:1", "-dir", "docs", "-ontology", "tags.txt",
		"-inflight", "3", "-timeout", "4s", "-max-timeout", "5s",
		"-limit", "6", "-max-limit", "7", "-batch-max", "8",
		"-drain", "9s", "-quiet", "-debug-addr", "127.0.0.1:2",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Flags{
		Addr: "127.0.0.1:1", Dir: "docs", Ontology: "tags.txt", DebugAddr: "127.0.0.1:2",
		InFlight: 3, Limit: 6, MaxLimit: 7, BatchMax: 8,
		Timeout: 4 * time.Second, MaxTimeout: 5 * time.Second, Drain: 9 * time.Second,
		Quiet: true,
	}
	if *f != want {
		t.Errorf("parsed %+v, want %+v", *f, want)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 12 {
		t.Errorf("%d flags declared, want 12", n)
	}
}
