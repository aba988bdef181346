package flix

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/xmlgraph"
)

// reopen persists ix as a v2 snapshot and opens the bytes back over c.
func reopen(c *xmlgraph.Collection, ix *Index, compress bool) (*Index, error) {
	var buf bytes.Buffer
	if _, err := ix.WriteSnapshotV2With(&buf, SnapshotV2Options{Compress: compress}); err != nil {
		return nil, err
	}
	return OpenSnapshotBytes(c, buf.Bytes())
}

// sameAnswers compares two indexes over c exhaustively: the descendants and
// ancestors streams from every element, untyped and for every tag, and the
// connection test for every element pair.
func sameAnswers(c *xmlgraph.Collection, a, b *Index) error {
	tags := []string{""}
	for id := xmlgraph.NodeID(0); int(id) < c.NumNodes(); id++ {
		if t := c.Tag(id); !slices.Contains(tags, t) {
			tags = append(tags, t)
		}
	}
	for x := xmlgraph.NodeID(0); int(x) < c.NumNodes(); x++ {
		for _, tag := range tags {
			if ra, rb := collect(a, x, tag, Options{}), collect(b, x, tag, Options{}); !slices.Equal(ra, rb) {
				return fmt.Errorf("Descendants(%d, %q): %v vs %v", x, tag, ra, rb)
			}
			var ra, rb []Result
			a.Ancestors(x, tag, Options{}, func(r Result) bool { ra = append(ra, r); return true })
			b.Ancestors(x, tag, Options{}, func(r Result) bool { rb = append(rb, r); return true })
			if !slices.Equal(ra, rb) {
				return fmt.Errorf("Ancestors(%d, %q): %v vs %v", x, tag, ra, rb)
			}
		}
		for y := xmlgraph.NodeID(0); int(y) < c.NumNodes(); y++ {
			d1, ok1 := a.Connected(x, y, 0)
			d2, ok2 := b.Connected(x, y, 0)
			if ok1 != ok2 || (ok1 && d1 != d2) {
				return fmt.Errorf("Connected(%d, %d): %d,%t vs %d,%t", x, y, d1, ok1, d2, ok2)
			}
		}
	}
	return nil
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c, _ := buildSample(t)
	for _, cfg := range allConfigs() {
		orig, err := Build(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, compress := range []bool{false, true} {
			loaded, err := reopen(c, orig, compress)
			if err != nil {
				t.Fatalf("%v compress=%t: %v", cfg, compress, err)
			}
			if err := sameAnswers(c, orig, loaded); err != nil {
				t.Fatalf("%v compress=%t: %v", cfg, compress, err)
			}
			if orig.NumMetaDocuments() != loaded.NumMetaDocuments() || orig.Describe() != loaded.Describe() {
				t.Errorf("%v compress=%t: %q reopened as %q", cfg, compress, orig.Describe(), loaded.Describe())
			}
			loaded.Close()
		}
	}
}

func TestLoadWrongCollection(t *testing.T) {
	c, _ := buildSample(t)
	ix, err := Build(c, Config{Kind: Naive})
	if err != nil {
		t.Fatal(err)
	}
	// A different collection must be rejected.
	other := xmlgraph.NewCollection()
	b := other.NewDocument("x")
	b.Enter("r", "")
	b.Leave()
	b.Close()
	other.Freeze()
	if _, err := reopen(other, ix, false); err == nil {
		t.Error("OpenSnapshotBytes accepted a mismatched collection")
	}
}

func TestLoadTruncated(t *testing.T) {
	c, _ := buildSample(t)
	ix, err := Build(c, Config{Kind: Hybrid, PartitionSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteSnapshotV2(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, len(full) / 2, len(full) - 1} {
		if _, err := OpenSnapshotBytes(c, full[:cut]); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("snapshot truncated at %d bytes: err = %v, want ErrSnapshotCorrupt", cut, err)
		}
	}
	// Garbage magic.
	if _, err := OpenSnapshotBytes(c, []byte("XXXXgarbage")); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("garbage: err = %v, want ErrSnapshotCorrupt", err)
	}
	// Unfrozen collection.
	if _, err := OpenSnapshotBytes(xmlgraph.NewCollection(), full); err == nil {
		t.Error("OpenSnapshotBytes accepted an unfrozen collection")
	}
}

func TestPropertySaveLoadEquivalence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 10}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := xmlgraph.RandomCollection(rng, 2+rng.Intn(6), 10, rng.Intn(12))
		confs := allConfigs()
		conf := confs[rng.Intn(len(confs))]
		orig, err := Build(c, conf)
		if err != nil {
			return false
		}
		loaded, err := reopen(c, orig, rng.Intn(2) == 0)
		if err != nil {
			return false
		}
		defer loaded.Close()
		if err := sameAnswers(c, orig, loaded); err != nil {
			t.Logf("seed %d, %v: %v", seed, conf, err)
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
