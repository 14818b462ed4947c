package mklite

// The linked-code gate: every function and method outside the tests must
// be linked into some binary the module ships, or be named below as an
// exception with its reason. Run it alone with
//
//	go test . -run '^TestEveryDeclarationIsLinked$' -v
//
// The roots are every package main under cmd/ and examples/, the bench
// module, and a throwaway main, generated inside the module and removed
// afterwards, that takes the value of every exported function and method of
// this package. Each root is built with inlining off (-gcflags=all=-l), so
// that no callee disappears into its caller, and with the linker's
// dependency dump (-ldflags=-dumpdep), which lists every symbol the linker
// keeps. A declaration is linked when some kept symbol names it, once
// generic shapes, closure and wrapper suffixes and ABI tags are stripped.

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// linkExceptions are the declarations no binary links that stay. A key is a
// declaration as the gate prints it (module-relative package path, then
// the name, with the receiver for a method) or a whole package path. Each
// reason says why the code stays; where a test uses it as an oracle or an
// observer, the reason names that test, and a test no test file declares
// fails the gate (a trailing * names every test with that prefix). An
// exception that is gone, or that some binary now links, fails it too.
var linkExceptions = []struct{ decl, reason string }{
	// The analyzers' test harness and what only it calls.
	{"internal/analysis/analysistest", "the analyzers' test harness: the analysis tests import it and no binary does"},
	{"internal/analysis.Run", "analysistest.Run runs one analyzer over a fixture with it; mklint calls Analyze"},
	{"internal/analysis.LoadDir", "analysistest loads fixture packages from testdata with it, where go list does not look"},
	{"internal/analysis.(*seedParamsFact).AFact", "marker method that makes the type an analysis.Fact; nothing calls it"},
	{"internal/analysis.(*rngParamsFact).AFact", "marker method that makes the type an analysis.Fact; nothing calls it"},

	// Oracles and observers of remaining tests.
	{"internal/ltp.ExecutableCaseIDs", "the E7 oracle: ltp:TestExecutedCasesAgreeWithEvaluate runs every executable case against Evaluate"},
	{"internal/ltp.RunExecutable", "the E7 oracle: ltp:TestExecutedCasesAgreeWithEvaluate runs every executable case against Evaluate"},
	{"internal/cluster.StepRecord.Total", "oracle of cluster:TestTraceRecordsSteps: the step totals sum to the elapsed time"},
	{"internal/cluster.Breakdown.Total", "oracle of cluster:TestResultMetadata and experiments:TestRetryCounterGolden: Elapsed is Breakdown.Total() plus Recovery"},
	{"internal/sim.(*RNG).NormFloat64", "reference normal sampler of noise:TestNormInvAgainstSampler and of the refLogNormal oracle in the noise sampler tests"},
	{"internal/stats.(*Series).NodeCounts", "observer of the experiments:TestPaperClaims rows that walk a figure's node counts"},
	{"internal/metrics.(*Registry).Ranked", "observer of cluster:TestHeapMemoMatchesReplay and FuzzHeapMemoMatchesReplay, which compare per-rank heap-cost histograms"},
	{"internal/obs.(*SLO).String", "oracle of obs:FuzzParseSLO: a parsed SLO must render and parse back to itself"},
	{"internal/obs.(*Timeline).Events", "observer of fleet:TestFacilityMatchesFreshRuns, TestObsQuickRunArtifacts and TestObsFullScaleTimeline, which read the timeline's events"},
	{"internal/obs.(*Timeline).Open", "observer of fleet:TestObsQuickRunArtifacts, FuzzFacility and BenchmarkObsOverhead: a drained run leaves no job resident"},
	{"internal/cluster.(*Images).Sizes", "observer of cluster:TestImageRunsMatchFresh, TestImagesSharedConcurrently and fleet:TestFacilityMatchesFreshRuns, which count the images a store prepared"},
	{"internal/mem.(*AddrSpace).VMAs", "observer of cluster:TestKernelOrdersSurviveCallerAppends, kernel:TestProcessMprotect and mem:TestMapUsesLargePages, TestReleaseAll, TestProtect* and TestSplit*"},
}

// decl is one function or method declaration outside the tests.
type decl struct {
	pkg string // import path
	pos string // file:line, module-relative
}

func TestEveryDeclarationIsLinked(t *testing.T) {
	decls, mains := declarations(t)
	roots := append(slices.Clone(mains), facadeRoot(t, decls))
	linked := map[string]bool{}
	out := t.TempDir()
	dumpdep(t, ".", filepath.Join(out, "mod")+string(filepath.Separator), roots, decls, linked)
	dumpdep(t, "bench", filepath.Join(out, "bench"), []string{"."}, decls, linked)

	except := map[string]string{}
	for _, e := range linkExceptions {
		if e.reason == "" {
			t.Errorf("exception %s gives no reason", e.decl)
		}
		except[e.decl] = e.reason
	}
	tests := testFuncs(t)
	for _, e := range linkExceptions {
		for _, cite := range citedTest.FindAllString(e.reason, -1) {
			prefix, wild := strings.CutSuffix(cite, "*")
			if !slices.ContainsFunc(tests, func(name string) bool { return name == cite || wild && strings.HasPrefix(name, prefix) }) {
				t.Errorf("exception %s cites %s, which no test file declares", e.decl, cite)
			}
		}
	}
	seen := map[string]bool{}
	var unlinked []string
	for key, d := range decls {
		name, pkg := short(key), short(d.pkg)
		seen[name], seen[pkg] = true, true
		switch {
		case linked[key] && except[name] != "":
			t.Errorf("stale exception %s: a binary links it", name)
		case linked[key] && except[pkg] != "":
			t.Errorf("stale exception %s: a binary links %s", pkg, name)
		case !linked[key] && except[name] == "" && except[pkg] == "":
			unlinked = append(unlinked, fmt.Sprintf("%s: %s", d.pos, name))
		}
	}
	slices.Sort(unlinked)
	for _, u := range unlinked {
		t.Errorf("%s is linked by no binary: delete it, or name it in linkExceptions with its reason", u)
	}
	for _, e := range linkExceptions {
		if !seen[e.decl] {
			t.Errorf("stale exception %s: no such declaration or package", e.decl)
		}
	}
	t.Logf("%d declarations, %d linked, %d exceptions", len(decls), len(linked), len(linkExceptions))
}

// short trims the module path from a declaration key or package path.
func short(key string) string {
	if s, ok := strings.CutPrefix(key, "mklite/"); ok {
		return s
	}
	return key
}

// declarations parses every non-test Go file of the module outside bench/
// and testdata/ and returns its functions and methods by symbol name
// (import path, then name, with the receiver as the linker writes it), and
// the import paths of the package mains under cmd/ and examples/.
func declarations(t *testing.T) (map[string]decl, []string) {
	t.Helper()
	decls := map[string]decl{}
	var mains []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if dir != "." && (dir == "bench" || e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		path := "mklite"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		if bp.Name == "main" && (strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/")) {
			mains = append(mains, "./"+filepath.ToSlash(dir))
		}
		for _, name := range bp.GoFiles {
			file := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || (fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main")) {
					continue
				}
				key := path + "." + recvName(fd) + fd.Name.Name
				decls[key] = decl{pkg: path, pos: fmt.Sprintf("%s:%d", file, fset.Position(fd.Pos()).Line)}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, mains
}

// citedTest matches a test, fuzz target or benchmark named in a reason.
var citedTest = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*\*?`)

// testFuncs returns the name of every test, fuzz target and benchmark that
// a _test.go file of the module, bench/ included, declares.
func testFuncs(t *testing.T) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && path != "." && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_")):
			return filepath.SkipDir
		case e.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && citedTest.MatchString(fd.Name.Name) {
				names = append(names, fd.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// recvName is a method's receiver as the linker spells it, "(*T)." or "T.",
// without type parameters; "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}

// facadeRoot writes a package main inside the module that takes the value
// of every exported function and method of package mklite, and returns its
// relative path; the directory is removed when the test ends.
func facadeRoot(t *testing.T, decls map[string]decl) string {
	t.Helper()
	var refs []string
	for key, d := range decls {
		if d.pkg != "mklite" {
			continue
		}
		name := strings.TrimPrefix(key, "mklite.")
		recv, fn, isMethod := strings.Cut(name, ".")
		if !isMethod {
			recv, fn = "", name
		}
		typ := strings.Trim(recv, "(*)")
		if !ast.IsExported(fn) || (recv != "" && !ast.IsExported(typ)) {
			continue
		}
		switch {
		case recv == "":
			refs = append(refs, "mklite."+fn)
		case strings.HasPrefix(recv, "(*"):
			refs = append(refs, "(*mklite."+typ+")."+fn)
		default:
			refs = append(refs, "mklite."+typ+"."+fn)
		}
	}
	slices.Sort(refs)
	dir, err := os.MkdirTemp(".", "_linkroot")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	src := "package main\n\nimport \"mklite\"\n\nvar sink []any\n\nfunc main() {\n\tsink = []any{\n\t\t" +
		strings.Join(refs, ",\n\t\t") + ",\n\t}\n}\n"
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return "./" + filepath.ToSlash(dir)
}

// dumpdep builds pkgs in dir with inlining off and the linker's dependency
// dump on, and marks in linked every declaration a kept symbol names.
func dumpdep(t *testing.T, dir, out string, pkgs []string, decls map[string]decl, linked map[string]bool) {
	t.Helper()
	args := append([]string{"build", "-o", out, "-gcflags=all=-l", "-ldflags=-dumpdep"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	dump, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, tail(dump))
	}
	binary := ""
	sc := bufio.NewScanner(bytes.NewReader(dump))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if path, ok := strings.CutPrefix(line, "# "); ok {
			binary = path
			continue
		}
		for _, sym := range strings.Split(line, " -> ") {
			markLinked(symbolName(sym, binary), decls, linked)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// symbolName normalises a linker symbol: generic shapes and instantiation
// arguments ("[go.shape.int]") go, as do a trailing attribute
// ("<UsedInIface>"), the function-value and method-value suffixes ("·f",
// "-fm"), range-over-func bodies ("-range1") and ABI tags; a package main's
// "main." becomes the binary's import path.
func symbolName(sym, binary string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	s, _, _ = strings.Cut(s, " ")
	s, _, _ = strings.Cut(s, "·")
	s, _, _ = strings.Cut(s, "<")
	if rest, ok := strings.CutPrefix(s, "main."); ok {
		s = binary + "." + rest
	}
	slash := strings.LastIndexByte(s, '/')
	if i := strings.IndexByte(s[slash+1:], '-'); i >= 0 {
		s = s[:slash+1+i]
	}
	return s
}

// markLinked marks the declaration sym names: sym itself, or the
// declaration whose closure ("F.func1", "F.func2.deferwrap1") it is.
// Funcdata symbols ("F.stkobj", "F.opendefer") do not count: the linker
// folds identical ones together under any one of their names.
func markLinked(sym string, decls map[string]decl, linked map[string]bool) {
	for {
		if _, ok := decls[sym]; ok {
			linked[sym] = true
			return
		}
		i := strings.LastIndexByte(sym, '.')
		if i <= strings.LastIndexByte(sym, '/') || !closure.MatchString(sym[i+1:]) {
			return
		}
		sym = sym[:i]
	}
}

// closure matches the name the compiler gives a function literal, or a
// deferred or go'd call's wrapper, inside its enclosing function.
var closure = regexp.MustCompile(`^(func|deferwrap|gowrap)[0-9]+$`)

// tail is the last few lines of a command's output.
func tail(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return strings.Join(lines[max(0, len(lines)-20):], "\n")
}
