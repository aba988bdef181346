package server

import (
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dblp"
	"repro/internal/flix"
)

// TestTextDictLazyAndBounded holds the anchor dictionary to what the
// benchmark's gates assume on the 6210-document corpus.  Lazy: building an
// index, opening a snapshot, installing generations and answering queries
// without a content predicate build nothing, so set-up, open and install
// cost what they did; the first predicate query naming a tag builds that
// tag's dictionary and no other.  Bounded: the dictionaries of the three
// tags the ranked workload queries stay under 1 MiB together.  They belong
// to the collection, so a hot swap keeps them, and /statsz reports each.
func TestTextDictLazyAndBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 6210-document corpus")
	}
	coll := dblp.Generate(dblp.Scaled(6210)).BuildGraph()
	none := func(when string) {
		t.Helper()
		if st := coll.TextDictStats(); len(st) != 0 {
			t.Fatalf("%s: dictionaries exist: %+v", when, st)
		}
	}
	built, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 5000})
	if err != nil {
		t.Fatal(err)
	}
	none("after Build")

	path := filepath.Join(t.TempDir(), "gen-000001.flix")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.WriteSnapshotV2With(f, flix.SnapshotV2Options{Compress: true}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	opened, err := flix.OpenSnapshotWith(coll, path, flix.OpenOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	none("after OpenSnapshot")

	s := New(built, Config{CacheSize: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Install(opened, "test: snapshot generation")
	none("after Install")

	ranked := func(expr string) map[string]any {
		t.Helper()
		return getJSON(t, ts.URL+"/v1/query?"+url.Values{"q": {expr}, "k": {"10"}}.Encode(), 200)
	}
	getJSON(t, ts.URL+"/v1/descendants?start=pub000100.xml&tag=author", 200)
	ranked("//article//author")
	ranked(`//title[text~""]`)             // an empty needle is the scan's
	ranked(`//title[text~"adaptive xml"]`) // so is one with whitespace
	ranked(`//*[text~"xml"]`)              // and the wildcard tag
	none("after queries the dictionary does not answer")

	if got := ranked(`//title[text~"XML"]`); got["count"].(float64) != 10 {
		t.Fatalf(`//title[text~"XML"]: %v results, want 10`, got["count"])
	}
	st := coll.TextDictStats()
	if len(st) != 1 || st[0].Tag != "title" {
		t.Fatalf("after one title query: %+v, want the title dictionary alone", st)
	}
	titleDict := coll.TextDict("title")

	ranked(`//author[text~"suciu"]`)
	ranked(`//cite[text="conf/none/None00-0"]//author`)
	s.Install(built, "test: swap back")
	ranked(`//title[text~"XML"]`)
	if coll.TextDict("title") != titleDict {
		t.Error("the hot swap rebuilt the title dictionary")
	}

	st = coll.TextDictStats()
	total := 0
	var tags []string
	for _, d := range st {
		total += d.Bytes
		tags = append(tags, d.Tag)
		if d.Tokens == 0 || d.Postings < d.Tokens || d.Build <= 0 {
			t.Errorf("implausible stats %+v", d)
		}
	}
	if len(st) != 3 || tags[0] != "author" || tags[1] != "cite" || tags[2] != "title" {
		t.Fatalf("dictionaries of %v, want author, cite, title", tags)
	}
	if total >= 1<<20 {
		t.Errorf("the three dictionaries hold %d B, bound 1 MiB: %+v", total, st)
	}
	t.Logf("%d B in three dictionaries: %+v", total, st)

	// /statsz reports the same.
	reported := getJSON(t, ts.URL+"/statsz", 200)["textDicts"].([]any)
	if len(reported) != 3 {
		t.Fatalf("/statsz textDicts = %v", reported)
	}
	for i, r := range reported {
		d := r.(map[string]any)
		if d["tag"] != st[i].Tag || int(d["tokens"].(float64)) != st[i].Tokens ||
			int(d["postings"].(float64)) != st[i].Postings || int(d["bytes"].(float64)) != st[i].Bytes {
			t.Errorf("/statsz textDicts[%d] = %v, collection says %+v", i, d, st[i])
		}
		if _, ok := d["buildMs"].(float64); !ok {
			t.Errorf("/statsz textDicts[%d] has no buildMs: %v", i, d)
		}
	}
}
