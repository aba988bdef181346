package flix_test

import (
	"encoding/json"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	pathpkg "path"
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
// exists; DESIGN.md, README.md and EXPERIMENTS.md describe the system as it
// is, so none refers to a change by its PR number.
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
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
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
// under internal/ that no non-test file uses, each as pkg.Name or
// pkg.Type.Name.
var unreferencedExports = map[string][]string{
	"errors.Is and errors.As call it": {
		"shard.retryableError.Unwrap"},
	"a capability the paper gives the strategy: APEX label paths on the summary alone (§2.2)": {
		"apex.Index.PathExtent"},
	"ablation builders (DESIGN.md §4): bench_test.go compares them, tests register them in meta.Registry": {
		"hopi.DCStrategy", "apex.StrategyK", "hopi.BuildNaive", "hopi.Index.LabelEntries"},
	"test support for other packages' tests, which an export_test.go cannot serve": {
		"lgraph.NewBuilder", "lgraph.Builder.AddNode", "lgraph.Builder.AddEdge", "lgraph.Builder.Finish",
		"lgraph.LGraph.NumEdges", "meta.Set.Validate", "storage.Reseal", "xmlparse.Parse",
		"xmlgraph.Collection.Tags", "xmlgraph.Collection.NumEdges", "xmlgraph.Collection.Ancestors",
		"xmlgraph.Collection.BFSDistance"},
}

// unsetOptions lists, each with its reason, the option fields no non-test
// file writes, as pkg.Type.Field.
var unsetOptions = map[string]string{
	"query.Evaluator.InverseScore":    "the inverted-direction vagueness of §1.1, a library option only tests set",
	"shard.RouterConfig.RetryBackoff": "tests shorten the retry sleep; every binary keeps the default",
}

// TestEveryOptionIsSet: every exported field of an exported struct under
// internal/ whose name ends in Config or Options, and of query.Evaluator, is
// written by some non-test Go file of this module or of benchmark/ — as a
// composite-literal key, the target of an assignment or ++/--, or through
// &x.F — or is listed above with its reason.  An option nothing sets is a
// default wearing a knob: make it a constant.
func TestEveryOptionIsSet(t *testing.T) {
	m := typeCheckModule(t)
	written := map[*types.Var]bool{}
	write := func(x ast.Expr) {
		if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
			if v, ok := m.info.Uses[sel.Sel].(*types.Var); ok {
				written[v] = true
			}
		}
	}
	for _, f := range m.syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok {
					if v, ok := m.info.Uses[key].(*types.Var); ok && v.IsField() {
						written[v] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					write(lhs)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X)
				}
			}
			return true
		})
	}
	seen := map[string]bool{}
	for path, pkg := range m.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			option := strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") ||
				path == "repro/internal/query" && name == "Evaluator"
			if !ok || !obj.Exported() || !option {
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				field := st.Field(i)
				if !field.Exported() {
					continue
				}
				key := pkg.Name() + "." + name + "." + field.Name()
				seen[key] = true
				_, listed := unsetOptions[key]
				switch {
				case listed && written[field]:
					t.Errorf("%s is listed as unset, but a non-test file sets it: drop it from the list", key)
				case !listed && !written[field]:
					t.Errorf("%s: option %s is set by no non-test file: make it a constant, or list it with its reason",
						m.fset.Position(field.Pos()), key)
				}
			}
		}
	}
	for key := range unsetOptions {
		if !seen[key] {
			t.Errorf("%s is listed as unset, but it is gone: drop it from the list", key)
		}
	}
}

// stdlibDispatch are the interfaces of the standard library whose methods
// it calls on the module's values (fmt's verbs, encoding/json, net/http,
// container/heap): a method that implements one of them is used.
var stdlibDispatch = [][2]string{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"net/http", "Handler"},
	{"container/heap", "Interface"},
}

// TestNoUnreferencedExports: every exported function or method declared in a
// non-test file under internal/ is used by some non-test Go file of this
// module or of benchmark/, or is listed above with its reason;
// internal/testutil, whose callers are tests by design, is not held to it.
// Uses are resolved by type (go/types over the files go/build selects, so
// build tags hold): a method is used when that method is named, or when a
// method of an interface its type implements is, since a call through the
// interface may reach it.  What it catches is the export whose last caller
// was deleted or moved into a test, even when another type keeps a method
// of the same name.  An export only its own package's tests call belongs in
// that package's export_test.go.
func TestNoUnreferencedExports(t *testing.T) {
	m := typeCheckModule(t)
	used := map[*types.Func]bool{}
	var ifaceMethods []*types.Func
	for _, obj := range m.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if !used[fn] && isInterfaceMethod(fn) {
			ifaceMethods = append(ifaceMethods, fn)
		}
		used[fn] = true
	}
	for _, ref := range stdlibDispatch {
		pkg, err := m.std.Import(ref[0])
		if err != nil {
			t.Fatal(err)
		}
		iface := pkg.Scope().Lookup(ref[1]).Type().Underlying().(*types.Interface)
		for i := range iface.NumMethods() {
			ifaceMethods = append(ifaceMethods, iface.Method(i))
		}
	}
	reached := func(fn *types.Func) bool {
		if used[fn] {
			return true
		}
		n := receiver(fn)
		if n == nil || n.TypeParams().Len() > 0 {
			return false
		}
		ptr := types.NewPointer(n)
		for _, im := range ifaceMethods {
			if im.Name() == fn.Name() && types.Implements(ptr, im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)) {
				return true
			}
		}
		return false
	}
	listed := map[string]bool{}
	for _, names := range unreferencedExports {
		for _, name := range names {
			listed[name] = true
		}
	}
	seen := map[string]bool{}
	for _, fn := range m.exported {
		key := exportKey(fn)
		seen[key] = true
		switch ref := reached(fn); {
		case listed[key] && ref:
			t.Errorf("%s is listed as unreferenced, but a non-test file uses it: drop it from the list", key)
		case !listed[key] && !ref:
			t.Errorf("%s: %s is exported, but no non-test file uses it: delete it, unexport it, move it to a _test.go file, or list it with its reason",
				m.fset.Position(fn.Pos()), key)
		}
	}
	for name := range listed {
		if !seen[name] {
			t.Errorf("%s is listed as unreferenced, but it is gone: drop it from the list", name)
		}
	}
}

// isInterfaceMethod reports whether fn is declared by an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// receiver returns the named type fn is a method of, nil for a function.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	n, _ := typ.(*types.Named)
	return n
}

// exportKey names fn as the allowlist does: pkg.Name, or pkg.Type.Name for a
// method.
func exportKey(fn *types.Func) string {
	key := fn.Pkg().Name() + "."
	if n := receiver(fn); n != nil {
		key += n.Obj().Name() + "."
	}
	return key + fn.Name()
}

// checkedModule is this module and the benchmark module type-checked
// together, test files left out: one Uses map over every package, and the
// exported functions and methods declared under internal/.
type checkedModule struct {
	fset     *token.FileSet
	info     *types.Info
	syntax   []*ast.File
	exported []*types.Func
	files    map[string][]string // import path -> the non-test files go/build selects
	pkgs     map[string]*types.Package
	std      types.ImporterFrom
}

// typeCheckModule type-checks every package of the module (import path
// "repro") and of benchmark/ ("repro/benchmark") from source; standard
// library packages come from the source importer.
func typeCheckModule(t *testing.T) *checkedModule {
	t.Helper()
	fset := token.NewFileSet()
	m := &checkedModule{
		fset:  fset,
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		files: map[string][]string{},
		pkgs:  map[string]*types.Package{},
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	var paths []string
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir // .bench_build, .git
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		if err != nil {
			return err
		}
		path := pathpkg.Join("repro", filepath.ToSlash(dir))
		for _, name := range bp.GoFiles {
			m.files[path] = append(m.files[path], filepath.Join(dir, name))
		}
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// Import implements types.Importer.
func (m *checkedModule) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, ".", 0)
}

// ImportFrom implements types.ImporterFrom: a package of the module is
// checked once, recording its uses; any other comes from the source importer.
func (m *checkedModule) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	names, ok := m.files[path]
	if !ok {
		return m.std.ImportFrom(path, dir, mode)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	m.syntax = append(m.syntax, files...)
	if strings.HasPrefix(path, "repro/internal/") && !strings.HasPrefix(path, "repro/internal/testutil") {
		for _, f := range files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					m.exported = append(m.exported, m.info.Defs[fd.Name].(*types.Func))
				}
			}
		}
	}
	return pkg, nil
}
