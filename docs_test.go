package flix_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingArtefacts: every result file, command, command-line
// flag, flixbench experiment and test or benchmark function the living docs
// name must exist.  Function names match as prefixes, as the -run/-bench
// patterns quoting them do.  A flag written after flixd, flixd-router,
// flixquery or flixbench must be one that command's main defines; a
// backticked flag on its own must be one of theirs too, or one of the other
// tools' flags listed below.
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
	commands := `flixd-router|flixd|flixquery|flixbench`
	// command -> its flags; "" holds every command's, plus those of other
	// tools that the docs cite on their own.
	defined := map[string]map[string]bool{"": {
		"race": true, "cpu": true, "benchtime": true, // go test
		"o": true, "d": true, // curl
		"smoke": true, "trace": true, // benchmark/run.sh
		"update": true, // go test ./internal/front/
	}}
	for _, cmd := range strings.Split(commands, "|") {
		main, _ := os.ReadFile("cmd/" + cmd + "/main.go")
		defined[cmd] = map[string]bool{}
		for _, m := range regexp.MustCompile(`flag\.\w+\("([\w-]+)"`).FindAllStringSubmatch(string(main), -1) {
			defined[cmd][m[1]], defined[""][m[1]] = true, true
		}
	}
	command, flagName := regexp.MustCompile(commands), regexp.MustCompile("(?:^|[\\s\\[`])-([a-z][a-z0-9-]*)")
	flagsDefined := func(cite string) bool {
		flags := defined[command.FindString(cite)]
		for _, m := range flagName.FindAllStringSubmatch(cite, -1) {
			if !flags[m[1]] {
				return false
			}
		}
		return true
	}
	checks := map[string]func(cite string) bool{
		`\bBENCH_\w+\.json|\bcmd/[\w-]+`: func(path string) bool { _, err := os.Stat(path); return err == nil },
		`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`: func(name string) bool {
			return strings.Contains(tests.String(), "\nfunc "+name)
		},
		`flixbench -exp \w+`: func(cite string) bool {
			return strings.Contains(string(flixbench), `"`+strings.TrimPrefix(cite, "flixbench -exp ")+`"`)
		},
		`\b(?:` + commands + `)\b(?:[ \t]+[^\s|;&` + "`" + `]+)*`: flagsDefined, // a command and what follows it
		"(?m)(?:^|[\\s(])`-[a-z][^`\n]*`":                         flagsDefined, // a backticked flag on its own
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
