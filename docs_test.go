package flix_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingArtefacts: every result file, command, flixbench
// experiment and test or benchmark function the living docs name must exist.
// Function names match as prefixes, as the -run/-bench patterns quoting them do.
func TestDocsCiteExistingArtefacts(t *testing.T) {
	var tests strings.Builder // every _test.go of the repository
	filepath.WalkDir(".", func(path string, _ fs.DirEntry, _ error) error {
		if strings.HasSuffix(path, "_test.go") {
			src, _ := os.ReadFile(path)
			tests.Write(src)
		}
		return nil
	})
	flixbench, _ := os.ReadFile("cmd/flixbench/main.go")
	checks := map[string]func(cite string) bool{
		`\bBENCH_\w+\.json|\bcmd/[\w-]+`: func(path string) bool { _, err := os.Stat(path); return err == nil },
		`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`: func(name string) bool {
			return strings.Contains(tests.String(), "\nfunc "+name)
		},
		`flixbench -exp \w+`: func(cite string) bool {
			return strings.Contains(string(flixbench), `"`+strings.TrimPrefix(cite, "flixbench -exp ")+`"`)
		},
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for cite, ok := range checks {
			for _, c := range regexp.MustCompile(cite).FindAllString(string(text), -1) {
				if !ok(c) {
					t.Errorf("%s cites %q, which does not exist", doc, c)
				}
			}
		}
	}
}
