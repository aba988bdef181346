package flix_test

import (
	"go/ast"
	"go/parser"
	"go/token"
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

// unreferencedExports lists, by reason, the exported functions and methods
// under internal/ that no non-test file names.
var unreferencedExports = map[string][]string{
	"satisfies an interface the standard library calls (sort, encoding/json, errors)": {
		"Less", "MarshalJSON", "UnmarshalJSON", "Unwrap"},
	"a capability the paper gives the strategy: PPO answers all XPath axes (PAPER.md §1), APEX label paths on the summary alone (§2.2)": {
		"EachFollowing", "EachPreceding", "PathExtent"},
	"ablation builders (DESIGN.md §4): bench_test.go compares them, tests register them in meta.Registry": {
		"DCStrategy", "StrategyK", "BuildNaive", "LabelEntries"},
	"library API: a method of a type the root package re-exports (Stream, Collection, DocumentBuilder)": {
		"StreamType", "Drain", "TreeDescendants", "Current", "Path", "NumEdges"},
	"test support for other packages' tests, which an export_test.go cannot serve": {
		"NewBuilder", "AddNode", "AddEdge", "Reseal", "SizeOf", "Validate", "Pre"},
}

// TestNoUnreferencedExports: every exported function or method declared in a
// non-test file under internal/ is named by some non-test Go file of this
// module or of benchmark/ (beyond its own declaration), or is listed above
// with its reason; internal/testutil, whose callers are tests by design, is
// not held to it.  Matching is by name alone, so it errs towards silence;
// what it catches is the export whose last caller was deleted or moved into
// a test.  An export only its own package's tests call belongs in that
// package's export_test.go.
func TestNoUnreferencedExports(t *testing.T) {
	type decl struct{ name, pos string }
	var decls []decl
	declared, named := map[string]int{}, map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir // .bench_build, .git
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				named[n.Name]++
			case *ast.FuncDecl:
				declared[n.Name.Name]++
				if p := filepath.ToSlash(path); n.Name.IsExported() && strings.HasPrefix(p, "internal/") && !strings.HasPrefix(p, "internal/testutil/") {
					decls = append(decls, decl{n.Name.Name, fset.Position(n.Pos()).String()})
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, names := range unreferencedExports {
		for _, name := range names {
			listed[name] = true
			if named[name] > declared[name] || declared[name] == 0 {
				t.Errorf("%s is listed as unreferenced, but it is referenced or gone: drop it from the list", name)
			}
		}
	}
	for _, d := range decls {
		if !listed[d.name] && named[d.name] == declared[d.name] {
			t.Errorf("%s: %s is exported, but no non-test file names it: delete it, unexport it, move it to a _test.go file, or list it with its reason", d.pos, d.name)
		}
	}
}
