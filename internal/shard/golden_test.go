package shard_test

// The recorded-bodies golden: the router's public answers over a fixed
// query list, hashed.  The hash below was recorded at the commit before the
// limit travelled to the shards (6b820cc) — this file uses only
// constructors that existed there — so "K on the wire, the banded early stop
// and the binary frame change no public byte" is a test: results, count,
// partial, failedShards and rounds are all inside the hashed bodies.  Do
// not re-record it to make the test pass.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/dblp"
	"repro/internal/flix"
	"repro/internal/testutil"
	"repro/internal/xmlgraph"
)

const routerBodiesRecorded = "fed70c9943ab4be69113ed227746f7798d0e2470f58e613ebdaf14bd27dcd5a0"

// goldenKs are the result limits the pushdown is checked under; 0 leaves
// ?k= off (the router's default limit).
var goldenKs = []int{1, 2, 5, 17, 100, 0}

func TestRouterBodiesRecorded(t *testing.T) {
	h := sha256.New()
	answers := 0
	record := func(c *cluster, path, body string) {
		var resp *http.Response
		var err error
		if body == "" {
			resp, err = http.Get(c.router.URL + path)
		} else {
			resp, err = http.Post(c.router.URL+path, "application/json", strings.NewReader(body))
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, got)
		}
		// A deadline that ran out or a shard that dropped out is a disturbed
		// run, not a changed wire: say so instead of printing a hash.
		if !bytes.Contains(got, []byte(`"timedOut": false`)) || bytes.Contains(got, []byte(`"partial": true`)) {
			t.Fatalf("%s: not a clean answer, so the hash would mean nothing: %s", path, got)
		}
		fmt.Fprintf(h, "%s\n%s\n%d %s\n", path, body, resp.StatusCode, resp.Header.Get("X-Flix-Shards-Failed"))
		h.Write(got)
		answers++
	}

	// Two corpora: citation-linked publications on two shards (the
	// benchmark's shape in small), and the densely linked synthetic family
	// cut fine over four shards, where most gathers take several rounds.
	gen := dblp.Generate(dblp.Scaled(300))
	pubs := gen.BuildGraph()
	linked := testutil.Generate(testutil.Linked, 7, 16, 40, 60)
	for _, tc := range []struct {
		name   string
		coll   *xmlgraph.Collection
		size   int
		shards int
		starts []xmlgraph.NodeID
		tags   []string
		exprs  []string
	}{
		{
			name: "dblp", coll: pubs, size: 100, shards: 2,
			starts: []xmlgraph.NodeID{
				pubs.Doc(xmlgraph.DocID(gen.HubIndex)).Root, pubs.Doc(299).Root, pubs.Doc(250).Root,
				pubs.Doc(211).Root, pubs.Doc(140).Root, pubs.Doc(3).Root,
			},
			tags:  []string{"title", "author", "cite", "article", ""},
			exprs: []string{"//inproceedings//author", "//article//cite//title", "//article"},
		},
		{
			name: "linked", coll: linked, size: 20, shards: 4,
			starts: []xmlgraph.NodeID{0, 17, linked.Doc(5).Root, linked.Doc(11).Root, xmlgraph.NodeID(linked.NumNodes() - 1)},
			tags:   append(linked.Tags()[:3:3], ""),
			exprs:  []string{"//" + linked.Tags()[0] + "//" + linked.Tags()[1], "//" + linked.Tags()[2]},
		},
	} {
		ix, err := flix.Build(tc.coll, flix.Config{Kind: flix.Hybrid, PartitionSize: tc.size})
		if err != nil {
			t.Fatal(err)
		}
		c := newCluster(t, tc.coll, ix, tc.shards, 0)
		var items []string
		for si, start := range tc.starts {
			for ti, tag := range tc.tags {
				for ki, k := range goldenKs {
					q := url.Values{"start": {fmt.Sprint(start)}, "tag": {tag}, "timeout": {"20s"}}
					if k > 0 {
						q.Set("k", fmt.Sprint(k))
					}
					// Spread the self and maxdist variants over the grid
					// instead of multiplying it.
					switch (si + ti + ki) % 4 {
					case 1:
						q.Set("self", "1")
					case 2:
						q.Set("maxdist", fmt.Sprint(2+ki))
					case 3:
						q.Set("self", "1")
						q.Set("maxdist", fmt.Sprint(3+ti))
					}
					record(c, "/v1/descendants?"+q.Encode(), "")
					if (si+ti+ki)%5 == 0 {
						items = append(items, fmt.Sprintf(`{"start":"%d","tag":%q,"k":%d,"self":%v}`, start, tag, k, ki%2 == 0))
					}
				}
			}
		}
		for _, expr := range tc.exprs {
			for _, k := range []int{3, 25} {
				record(c, fmt.Sprintf("/v1/query?q=%s&k=%d&timeout=20s", url.QueryEscape(expr), k), "")
			}
			items = append(items, fmt.Sprintf(`{"q":%q,"k":4}`, expr))
		}
		record(c, "/v1/batch?timeout=20s", `{"k":7,"queries":[`+strings.Join(items, ",")+`]}`)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != routerBodiesRecorded {
		t.Errorf("sha256 of %d router answers = %s, recorded at the parent commit %s", answers, got, routerBodiesRecorded)
	}
}
