// Package ci holds the repository's documentation, formatting and
// static-analysis lints, written as ordinary Go tests so `go test ./...`
// (and the CI workflow's doc-lint step) enforces them on every package:
// gofmt-clean sources, a package doc comment on every package (including
// commands and examples), top-level docs that name only commands, make
// targets and benchmark records that exist, and a clean dcalint run — the
// internal/lint analyzer suite that proves the determinism,
// hot-path-allocation, lock-discipline and wire-contract invariants at the
// source level.
package ci

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// repoRoot is the module root relative to this package's directory.
const repoRoot = ".."

// goFiles returns every tracked .go file under the module root, skipping
// testdata and hidden directories.
func goFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || strings.HasPrefix(name, ".") && path != repoRoot {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found — wrong working directory?")
	}
	return files
}

// TestGofmt requires every source file to be gofmt-formatted (the
// equivalent of an empty `gofmt -l .`).
func TestGofmt(t *testing.T) {
	for _, path := range goFiles(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		formatted, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if string(src) != string(formatted) {
			t.Errorf("%s: not gofmt-formatted (run `gofmt -w %s`)", path, path)
		}
	}
}

// TestDCALint runs the repository's static-analysis suite (the same
// checks as `go run ./cmd/dcalint ./...`) in-process, so plain
// `go test ./...` is the enforcement point: digest-affecting packages
// stay free of nondeterminism sources, //dca:hotpath functions stay free
// of allocating constructs, the queue's critical sections stay
// non-blocking, and the wire/digest structs keep explicit json tags.
// DESIGN.md's "Enforced invariants" section maps each analyzer to the
// invariant it proves.
func TestDCALint(t *testing.T) {
	pkgs, err := lint.Load(repoRoot, nil)
	if err != nil {
		t.Fatalf("loading module for lint: %v", err)
	}
	diags := lint.Lint(pkgs, lint.DefaultAnalyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d finding(s); fix the code or justify with //dca:allow(<analyzer>: <why>)", len(diags))
	}
}

// requireTestFuncs requires each package directory under the module
// root to declare, in its _test.go files, every named top-level function:
// renaming or deleting one would silently drop the lock it enforces.
func requireTestFuncs(t *testing.T, lock string, suites map[string][]string) {
	t.Helper()
	fset := token.NewFileSet()
	for rel, names := range suites {
		dir := filepath.Join(repoRoot, rel)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		declared := map[string]bool{}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					declared[fd.Name.Name] = true
				}
			}
		}
		for _, name := range names {
			if !declared[name] {
				t.Errorf("%s has no %s — %s is gone", rel, name, lock)
			}
		}
	}
}

// requireCIRuns requires both the Makefile and the CI workflow to contain
// every snippet (a fuzz invocation or a smoke script).
func requireCIRuns(t *testing.T, snippets ...string) {
	t.Helper()
	for _, path := range []string{"Makefile", filepath.Join(".github", "workflows", "ci.yml")} {
		src, err := os.ReadFile(filepath.Join(repoRoot, path))
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range snippets {
			if !strings.Contains(string(src), want) {
				t.Errorf("%s does not run %q", path, want)
			}
		}
	}
}

// TestCheckpointSuiteWired gates the checkpoint round-trip lock in
// internal/core and the fuzz targets beside it: the co-simulation
// property and the wire-input planner (internal/job). Both `make fuzz`
// and the CI workflow must run each fuzz smoke.
func TestCheckpointSuiteWired(t *testing.T) {
	requireTestFuncs(t, "the checkpoint/fuzz lock", map[string][]string{
		filepath.Join("internal", "core"): {"TestCheckpointRoundTrip", "FuzzCoSimulate"},
		filepath.Join("internal", "job"):  {"FuzzSpecPlan"},
	})
	requireCIRuns(t, "-fuzz FuzzCoSimulate", "-fuzz FuzzSpecPlan")
}

// TestTraceSuiteWired gates the oracle trace layer's bit-identity locks:
// the record/replay fidelity tests and the fuzz target must exist in
// internal/trace, the golden grid must run through job.Traced in
// internal/experiments, and both `make fuzz`/`make trace-smoke` and the
// CI workflow must run the trace fuzz smoke and the end-to-end trace
// smoke.
func TestTraceSuiteWired(t *testing.T) {
	requireTestFuncs(t, "the trace replay bit-identity lock", map[string][]string{
		filepath.Join("internal", "trace"):       {"TestReplayMachineBitIdentity", "TestDecodeRejectsEveryBitFlip", "FuzzTraceReplay"},
		filepath.Join("internal", "experiments"): {"TestGoldenTracedRunner"},
	})
	requireCIRuns(t, "-fuzz FuzzTraceReplay", "trace_smoke.sh")
}

// TestProbeSuiteWired gates the introspection layer's passivity locks:
// the probed differential and the conservation test must exist in
// internal/core, the golden grid must reconcile detached and probed runs
// in internal/experiments, the serve path must keep attribution out of
// the store (cmd/dcaserve), the probeguard analyzer must stay in the
// default lint suite, and both the Makefile and the CI workflow must run
// the end-to-end probe smoke. Renaming or deleting any of these would
// silently drop the proof that observation never changes a result.
func TestProbeSuiteWired(t *testing.T) {
	requireTestFuncs(t, "the probe passivity lock", map[string][]string{
		filepath.Join("internal", "core"):        {"TestProbePassivityDifferential", "TestProbeAttributionSumsToCycles", "TestSteadyStateCycleAllocs"},
		filepath.Join("internal", "experiments"): {"TestGoldenProbeInvariants"},
		filepath.Join("cmd", "dcaserve"):         {"TestJobProbed"},
	})
	hasProbeGuard := false
	for _, a := range lint.DefaultAnalyzers() {
		if a.Name == "probeguard" {
			hasProbeGuard = true
		}
	}
	if !hasProbeGuard {
		t.Error("lint.DefaultAnalyzers no longer includes probeguard — unguarded probe calls in the cycle loop would go unflagged")
	}
	requireCIRuns(t, "probe_smoke.sh")
}

// TestDocReferencesExist requires every command, make target, benchmark
// record and Go identifier that the top-level documents name to exist:
// `cmd/<name>` must be a directory under cmd/, "`make <target>" a Makefile
// target, BENCH_<name>.json a file at the module root, and a backquoted
// `<pkg>.<Ident>` — <pkg> being a package directory under internal/ — an
// exported top-level declaration of that package, with a further
// `.<Ident>` a method or field of it. A deleted tool, target, record or
// API then cannot linger in the docs.
func TestDocReferencesExist(t *testing.T) {
	makefile, err := os.ReadFile(filepath.Join(repoRoot, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	exists := func(path string) bool {
		_, err := os.Stat(filepath.Join(repoRoot, path))
		return err == nil
	}
	refs := []struct {
		re     *regexp.Regexp
		form   string // the reference, from its captured name
		exists func(name string) bool
	}{
		{regexp.MustCompile(`\bcmd/([a-z0-9]+)`), "cmd/%s", func(n string) bool { return exists(filepath.Join("cmd", n)) }},
		{regexp.MustCompile("`make ([A-Za-z0-9_.-]+)"), "make %s", func(n string) bool { return targets[n] }},
		{regexp.MustCompile(`\bBENCH_([A-Za-z0-9_]+)\.json`), "BENCH_%s.json", func(n string) bool { return exists("BENCH_" + n + ".json") }},
	}
	decls := internalDecls(t)
	codeSpan := regexp.MustCompile("`[^`]+`")
	ident := regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(filepath.Join(repoRoot, doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, ref := range refs {
				for _, m := range ref.re.FindAllStringSubmatch(line, -1) {
					if !ref.exists(m[1]) {
						t.Errorf("%s:%d names %s, which does not exist", doc, i+1, fmt.Sprintf(ref.form, m[1]))
					}
				}
			}
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, m := range ident.FindAllStringSubmatch(span, -1) {
					pkg, ok := decls[m[1]]
					if !ok {
						continue
					}
					name := m[1] + "." + m[2]
					members, declared := pkg[m[2]]
					if !declared {
						t.Errorf("%s:%d names %s, which internal/ does not declare", doc, i+1, name)
					} else if m[3] != "" && !members[m[3]] {
						t.Errorf("%s:%d names %s.%s, which is not a method or field of %s", doc, i+1, name, m[3], name)
					}
				}
			}
		}
	}
}

// internalDecls maps each package directory under internal/, by its
// name, to its exported top-level declarations, each with the set of its
// methods and fields (struct fields, embedded types, interface methods).
func internalDecls(t *testing.T) map[string]map[string]map[string]bool {
	t.Helper()
	pkgs := map[string]map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(repoRoot, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.Base(filepath.Dir(path))
		if pkgs[dir] == nil {
			pkgs[dir] = map[string]map[string]bool{}
		}
		decl := func(name string) map[string]bool {
			if pkgs[dir][name] == nil {
				pkgs[dir][name] = map[string]bool{}
			}
			return pkgs[dir][name]
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					decl(d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if gen, ok := recv.(*ast.IndexExpr); ok {
					recv = gen.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					decl(id.Name)[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							decl(n.Name)
						}
					case *ast.TypeSpec:
						members := decl(spec.Name.Name)
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields == nil {
							continue
						}
						for _, field := range fields.List {
							for _, n := range field.Names {
								members[n.Name] = true
							}
							if len(field.Names) == 0 { // embedded
								typ := field.Type
								if star, ok := typ.(*ast.StarExpr); ok {
									typ = star.X
								}
								if sel, ok := typ.(*ast.SelectorExpr); ok {
									typ = sel.Sel
								}
								if id, ok := typ.(*ast.Ident); ok {
									members[id.Name] = true
								}
							}
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
	return pkgs
}

// TestEveryPackageHasDoc requires a package doc comment in every package
// directory: at least one file whose package clause carries a doc comment.
// Package docs are how ARCHITECTURE.md's package map stays discoverable
// from `go doc`.
func TestEveryPackageHasDoc(t *testing.T) {
	type pkgState struct {
		name   string
		hasDoc bool
	}
	pkgs := map[string]*pkgState{} // directory -> state
	fset := token.NewFileSet()
	for _, path := range goFiles(t) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		dir := filepath.Dir(path)
		st, ok := pkgs[dir]
		if !ok {
			st = &pkgState{name: f.Name.Name}
			pkgs[dir] = st
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			st.hasDoc = true
		}
	}
	for dir, st := range pkgs {
		if !st.hasDoc {
			t.Errorf("package %s (in %s) has no package doc comment", st.name, dir)
		}
	}
	// Test-only packages (like this one) are documented through their
	// _test.go files; check them separately so the lint applies to itself.
	testOnly := map[string]bool{}
	for _, path := range goFiles(t) {
		if !strings.HasSuffix(path, "_test.go") {
			continue
		}
		dir := filepath.Dir(path)
		if _, ok := pkgs[dir]; ok {
			continue
		}
		if testOnly[dir] {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			testOnly[dir] = true
		}
	}
	for _, path := range goFiles(t) {
		if !strings.HasSuffix(path, "_test.go") {
			continue
		}
		dir := filepath.Dir(path)
		if _, ok := pkgs[dir]; !ok && !testOnly[dir] {
			t.Errorf("test-only package in %s has no package doc comment", dir)
		}
	}
}
