package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	flix "repro"
	"repro/internal/dblp"
	"repro/internal/meta"
)

func TestParseConfig(t *testing.T) {
	cases := []struct {
		name string
		kind flix.ConfigKind
	}{
		{"naive", flix.Naive},
		{"maximal-ppo", flix.MaximalPPO},
		{"unconnected-hopi", flix.UnconnectedHOPI},
		{"hybrid", flix.Hybrid},
		{"monolithic", flix.Monolithic},
		{"element-level", flix.ElementLevel},
	}
	for _, c := range cases {
		cfg, err := parseConfig(c.name, 1234, "apex")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cfg.Kind != c.kind || cfg.PartitionSize != 1234 || cfg.Strategy != "apex" {
			t.Errorf("%s: %+v", c.name, cfg)
		}
	}
	if _, err := parseConfig("bogus", 0, ""); err == nil {
		t.Error("bogus config accepted")
	}
}

func TestSnippet(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", `""`},
		{"hello", `"hello"`},
		{"  spaced\n\tout  ", `"spaced out"`},
		{"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", `"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa..."`},
		{strings.Repeat("x", 36) + "\u00e9yyyy", `"` + strings.Repeat("x", 36) + `..."`},
	}
	for _, c := range cases {
		if got := snippet(c.in); got != c.want {
			t.Errorf("snippet(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

// TestSaveLoadRoundTrip builds and runs the command: what -save writes,
// -load serves with the answers of the fresh build, for a raw and a ranked
// query.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	binary := filepath.Join(dir, "flixquery")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	flixquery := func(args ...string) string {
		t.Helper()
		var stderr bytes.Buffer
		cmd := exec.Command(binary, args...)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("flixquery %v: %v\n%s", args, err, &stderr)
		}
		return string(out)
	}
	corpus := dblp.Generate(dblp.Scaled(40))
	docs := filepath.Join(dir, "docs")
	if err := os.MkdirAll(docs, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := corpus.WriteXML(docs); err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(dir, "index.flix")
	queries := [][]string{
		{"-start", corpus.DocName(corpus.HubIndex), "-tag", "title"},
		{"-query", "//inproceedings//author", "-k", "5"},
	}
	for i, q := range queries {
		built := []string{"-dir", docs}
		if i == 0 {
			built = append(built, "-save", saved)
		}
		want := flixquery(append(built, q...)...)
		if !strings.Contains(want, "1. ") {
			t.Fatalf("flixquery %v found nothing:\n%s", q, want)
		}
		if got := flixquery(append([]string{"-dir", docs, "-load", saved}, q...)...); got != want {
			t.Errorf("flixquery %v: -load answers\n%s\nfresh build answers\n%s", q, got, want)
		}
	}
	if stats := flixquery("-dir", docs, "-load", saved, "-stats"); !strings.Contains(stats, "index size:") {
		t.Errorf("-load -stats:\n%s", stats)
	}
}

// TestAblationStrategiesNotServed: a plain build registers the three
// strategies the paper deploys.  The ablation and oracle names are treated
// like any name that is not registered — the selector's heuristic decides,
// exactly as with no -strategy at all.
func TestAblationStrategiesNotServed(t *testing.T) {
	if len(meta.Registry) != 3 {
		t.Fatalf("meta.Registry holds %d strategies in a plain build, want ppo, hopi, apex: %v", len(meta.Registry), meta.Registry)
	}
	coll := dblp.Generate(dblp.Scaled(40)).BuildGraph()
	strategies := func(name string) string {
		cfg, err := parseConfig("hybrid", 200, name)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := flix.Build(coll, cfg)
		if err != nil {
			t.Fatalf("-strategy %q: %v", name, err)
		}
		var per []string
		for s, sb := range ix.BuildStats().Strategies {
			per = append(per, fmt.Sprintf("%s=%d", s, sb.Metas))
		}
		sort.Strings(per)
		return strings.Join(per, " ")
	}
	want := strategies("")
	for _, name := range []string{"tc", "hopi-dc", "a1", "a2", "no-such-strategy"} {
		if got := strategies(name); got != want {
			t.Errorf("-strategy %q built {%s}, the selector alone builds {%s}", name, got, want)
		}
	}
}

// TestLocalPlanHasFrontierPops: a local -explain plan of a query that pops
// the frontier more than once lists the pops' distance bounds, as the plan
// a flixd answers ?trace=1 with does.
func TestLocalPlanHasFrontierPops(t *testing.T) {
	corpus := dblp.Generate(dblp.Scaled(60))
	coll := corpus.BuildGraph()
	ix, err := flix.Build(coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := coll.DocByName(corpus.DocName(corpus.HubIndex))
	if !ok {
		t.Fatal("hub document missing")
	}
	tr := flix.NewTrace(0)
	ix.Descendants(coll.Doc(d).Root, "title", flix.Options{Tracer: tr}, func(flix.Result) bool { return true })
	plan := localPlan(tr)
	if !strings.Contains(plan, "frontier pops (distance bounds): ") || !strings.Contains(plan, " -> ") {
		t.Fatalf("a multi-pop local plan lacks the frontier pops line:\n%s", plan)
	}
}
