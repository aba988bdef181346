package flix_test

import (
	"encoding/json"
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
// flag, flixbench experiment, test or benchmark function and Go symbol the
// living docs name must exist; the living docs are the markdown files below
// and every package doc comment under internal/ and cmd/.  Function names
// match as prefixes, as the -run/-bench patterns quoting them do.  A flag
// written after flixd, flixd-router, flixquery or flixbench must be one
// that command's main defines, itself or through daemon.DeclareFlags; a
// backticked flag on its own must be one of theirs too, or one of the other
// tools' flags listed below.  A backticked `pkg.Symbol` (a top-level name or
// a method) or `pkg.Type.Member` (a method, a field or an interface method),
// pkg being one of this module's packages and Symbol exported, must be
// declared there; whatever follows the name — call arguments, a composite
// literal — is not checked.  A backticked metric name — a lower-case name
// with a '_' or '-' after a prefix BENCHMARK.json's per_layer metrics use, as
// in `flix.open_ms` — must be one of those metrics.
func TestDocsCiteExistingArtefacts(t *testing.T) {
	tests := testSources()
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
	daemon, _ := os.ReadFile("internal/front/daemon/daemon.go")
	shared := regexp.MustCompile(`fs\.\w+\(&f\.\w+, "([\w-]+)"`).FindAllStringSubmatch(string(daemon), -1)
	for _, cmd := range strings.Split(commands, "|") {
		main, _ := os.ReadFile("cmd/" + cmd + "/main.go")
		defined[cmd] = map[string]bool{}
		declared := regexp.MustCompile(`flag\.\w+\("([\w-]+)"`).FindAllStringSubmatch(string(main), -1)
		if strings.Contains(string(main), "daemon.DeclareFlags(") {
			declared = append(declared, shared...)
		}
		for _, m := range declared {
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
	symbols := declaredSymbols(t)
	var pkgs []string
	for pkg := range symbols {
		pkgs = append(pkgs, pkg)
	}
	symbolCite := regexp.MustCompile("^`(" + strings.Join(pkgs, "|") + `)\.([A-Z]\w*)(?:\.(\w+))?`)
	symbolDeclared := func(cite string) bool {
		m := symbolCite.FindStringSubmatch(cite)
		return symbols[m[1]][m[2]] && (m[3] == "" || symbols[m[1]][m[2]+"."+m[3]])
	}
	benchmark, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(benchmark, &declared); err != nil {
		t.Fatal(err)
	}
	metrics := map[string]bool{}
	var prefixes []string
	for _, m := range declared.PerLayer {
		metrics[m.Name] = true
		prefixes = append(prefixes, regexp.QuoteMeta(strings.Split(m.Name, ".")[0]))
	}
	metricCite := "`(?:" + strings.Join(prefixes, "|") + ")\\.[a-z][a-z0-9]*[_-][a-z0-9_-]*`"
	checks := map[string]func(cite string) bool{
		metricCite:                       func(cite string) bool { return metrics[strings.Trim(cite, "`")] },
		`\bBENCH_\w+\.json|\bcmd/[\w-]+`: func(path string) bool { _, err := os.Stat(path); return err == nil },
		`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`: func(name string) bool {
			return strings.Contains(tests, "\nfunc "+name)
		},
		`flixbench -exp \w+`: func(cite string) bool {
			return strings.Contains(string(flixbench), `"`+strings.TrimPrefix(cite, "flixbench -exp ")+`"`)
		},
		`\b(?:` + commands + `)\b(?:[ \t]+[^\s|;&` + "`" + `]+)*`: flagsDefined, // a command and what follows it
		"(?m)(?:^|[\\s(])`-[a-z][^`\n]*`":                         flagsDefined, // a backticked flag on its own
		"`(?:" + strings.Join(pkgs, "|") + ")\\.[A-Z][^`]*`":      symbolDeclared,
	}
	docs := packageDocs(t)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		docs[doc] = string(text)
	}
	for doc, text := range docs {
		for cite, ok := range checks {
			for _, c := range regexp.MustCompile(cite).FindAllString(text, -1) {
				if !ok(c) {
					t.Errorf("%s cites %q, which does not exist", doc, c)
				}
			}
		}
	}
}

// testSources returns every _test.go file of the repository, concatenated.
func testSources() string {
	var tests strings.Builder
	filepath.WalkDir(".", func(path string, _ fs.DirEntry, _ error) error {
		if strings.HasSuffix(path, "_test.go") {
			src, _ := os.ReadFile(path)
			tests.Write(src)
		}
		return nil
	})
	return tests.String()
}

// packageDocs maps each non-test Go file under internal/ and cmd/ that
// carries a package doc comment to that comment's text.
func packageDocs(t *testing.T) map[string]string {
	docs := map[string]string{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err == nil && file.Doc != nil {
				docs[path] = file.Doc.Text()
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(docs) == 0 {
		t.Fatal("no package doc comment found under internal/ or cmd/")
	}
	return docs
}

// TestDesignInvariantsNameTests: every row of DESIGN.md's invariant table
// (§6) names at least one Test or Fuzz function, and each one it names
// exists; DESIGN.md and README.md describe the system as it is, so neither
// refers to a change by its PR number.
func TestDesignInvariantsNameTests(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(design), "\n## 6. Invariants\n")
	if !found {
		t.Fatal("DESIGN.md has no section \"## 6. Invariants\"")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	tests, name := testSources(), regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`)
	rows, header := 0, true
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "|---") {
			header = false
		}
		if header || !strings.HasPrefix(line, "| ") {
			continue
		}
		rows++
		names := name.FindAllString(line, -1)
		if len(names) == 0 {
			t.Errorf("DESIGN.md §6 row names no test: %s", line)
		}
		for _, n := range names {
			if !strings.Contains(tests, "\nfunc "+n+"(") {
				t.Errorf("DESIGN.md §6 row names %s, which is not a test function: %s", n, line)
			}
		}
	}
	if rows == 0 {
		t.Error("DESIGN.md §6 has no invariant table rows")
	}
	pr := regexp.MustCompile(`\bPRs? #?\d+`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range pr.FindAllString(string(text), -1) {
			t.Errorf("%s refers to %q: describe the system as it is, and leave the history to CHANGES.md", doc, m)
		}
	}
}

// declaredSymbols maps each package of this module (the benchmark module and
// commands aside) to the names it declares, its tests included: top-level
// names and method names as they are, and the methods, fields and interface
// methods of its types as Type.Member.  The root package and internal/flix
// are both flix.
func declaredSymbols(t *testing.T) map[string]map[string]bool {
	symbols := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil || file.Name.Name == "main" {
			return err
		}
		pkg := strings.TrimSuffix(file.Name.Name, "_test")
		if symbols[pkg] == nil {
			symbols[pkg] = map[string]bool{}
		}
		names := symbols[pkg]
		members := func(typ string, fields *ast.FieldList) {
			for _, f := range fields.List {
				for _, n := range f.Names {
					names[typ+"."+n.Name] = true
				}
			}
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				names[decl.Name.Name] = true
				if decl.Recv == nil {
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch generic := recv.(type) { // Rows[T], Map[K, V]
				case *ast.IndexExpr:
					recv = generic.X
				case *ast.IndexListExpr:
					recv = generic.X
				}
				if typ, ok := recv.(*ast.Ident); ok {
					names[typ.Name+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							members(spec.Name.Name, typ.Fields)
						case *ast.InterfaceType:
							members(spec.Name.Name, typ.Methods)
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return symbols
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
	"library API: a method of a type the root package re-exports (Collection, DocumentBuilder)": {
		"TreeDescendants", "Current", "Path", "NumEdges"},
	"test support for other packages' tests, which an export_test.go cannot serve": {
		"NewBuilder", "AddNode", "AddEdge", "Reseal", "Validate"},
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
