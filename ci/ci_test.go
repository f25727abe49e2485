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

// TestFastForwardSuiteWired gates the fast-forward and checkpoint
// locks: the differential test, the fuzz target and the checkpoint
// round-trip must exist in internal/core (renaming or deleting one would
// silently drop the bit-identity enforcement for the skip paths), and
// both `make fuzz` and the CI workflow must run the fast-forward fuzz
// smoke alongside the co-simulation one.
func TestFastForwardSuiteWired(t *testing.T) {
	want := map[string]bool{
		"TestFastForwardDifferential": false,
		"FuzzFastForward":             false,
		"TestCheckpointRoundTrip":     false,
	}
	fset := token.NewFileSet()
	dir := filepath.Join(repoRoot, "internal", "core")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
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
				if _, tracked := want[fd.Name.Name]; tracked {
					want[fd.Name.Name] = true
				}
			}
		}
	}
	for name, found := range want {
		if !found {
			t.Errorf("internal/core has no %s — the fast-forward/checkpoint bit-identity lock is gone", name)
		}
	}
	for _, path := range []string{"Makefile", filepath.Join(".github", "workflows", "ci.yml")} {
		src, err := os.ReadFile(filepath.Join(repoRoot, path))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), "-fuzz FuzzFastForward") {
			t.Errorf("%s does not run the FuzzFastForward smoke", path)
		}
	}
}

// TestTraceSuiteWired gates the oracle trace layer's bit-identity locks:
// the record/replay fidelity tests and the fuzz target must exist in
// internal/trace, the golden grid must run through job.Traced in
// internal/experiments (renaming or deleting one would silently drop the
// replay-equals-live enforcement), and both `make fuzz`/`make
// trace-smoke` and the CI workflow must run the trace fuzz smoke and the
// end-to-end trace smoke.
func TestTraceSuiteWired(t *testing.T) {
	suites := map[string]map[string]bool{
		filepath.Join("internal", "trace"): {
			"TestReplayMachineBitIdentity":  false,
			"TestDecodeRejectsEveryBitFlip": false,
			"FuzzTraceReplay":               false,
		},
		filepath.Join("internal", "experiments"): {
			"TestGoldenTracedRunner": false,
		},
	}
	fset := token.NewFileSet()
	for rel, want := range suites {
		dir := filepath.Join(repoRoot, rel)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
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
					if _, tracked := want[fd.Name.Name]; tracked {
						want[fd.Name.Name] = true
					}
				}
			}
		}
		for name, found := range want {
			if !found {
				t.Errorf("%s has no %s — the trace replay bit-identity lock is gone", rel, name)
			}
		}
	}
	for _, path := range []string{"Makefile", filepath.Join(".github", "workflows", "ci.yml")} {
		src, err := os.ReadFile(filepath.Join(repoRoot, path))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), "-fuzz FuzzTraceReplay") {
			t.Errorf("%s does not run the FuzzTraceReplay smoke", path)
		}
		if !strings.Contains(string(src), "trace_smoke.sh") {
			t.Errorf("%s does not run the end-to-end trace smoke", path)
		}
	}
}

// TestProbeSuiteWired gates the introspection layer's passivity locks:
// the probed differential, the fast-forward attribution identity and the
// conservation test must exist in internal/core, the golden grid must
// reconcile detached and probed runs in internal/experiments, the serve
// path must keep attribution out of the store (cmd/dcaserve), the
// probeguard analyzer must stay in the default lint suite, and both the
// Makefile and the CI workflow must run the end-to-end probe smoke.
// Renaming or deleting any of these would silently drop the proof that
// observation never changes a result.
func TestProbeSuiteWired(t *testing.T) {
	suites := map[string]map[string]bool{
		filepath.Join("internal", "core"): {
			"TestProbePassivityDifferential":   false,
			"TestProbeFastForwardIdentity":     false,
			"TestProbeAttributionSumsToCycles": false,
			"TestSteadyStateCycleAllocs":       false,
		},
		filepath.Join("internal", "experiments"): {
			"TestGoldenProbeInvariants": false,
		},
		filepath.Join("cmd", "dcaserve"): {
			"TestJobProbed": false,
		},
	}
	fset := token.NewFileSet()
	for rel, want := range suites {
		dir := filepath.Join(repoRoot, rel)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
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
					if _, tracked := want[fd.Name.Name]; tracked {
						want[fd.Name.Name] = true
					}
				}
			}
		}
		for name, found := range want {
			if !found {
				t.Errorf("%s has no %s — the probe passivity lock is gone", rel, name)
			}
		}
	}
	hasProbeGuard := false
	for _, a := range lint.DefaultAnalyzers() {
		if a.Name == "probeguard" {
			hasProbeGuard = true
		}
	}
	if !hasProbeGuard {
		t.Error("lint.DefaultAnalyzers no longer includes probeguard — unguarded probe calls in the cycle loop would go unflagged")
	}
	for _, path := range []string{"Makefile", filepath.Join(".github", "workflows", "ci.yml")} {
		src, err := os.ReadFile(filepath.Join(repoRoot, path))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), "probe_smoke.sh") {
			t.Errorf("%s does not run the end-to-end probe smoke", path)
		}
	}
}

// TestDocReferencesExist requires every command, make target and
// benchmark record that the top-level documents name to exist: `cmd/<name>`
// must be a directory under cmd/, "`make <target>" a Makefile target, and
// BENCH_<name>.json a file at the module root. A deleted tool, target or
// record then cannot linger in the docs.
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
		}
	}
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
