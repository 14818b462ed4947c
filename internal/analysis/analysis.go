// Package analysis implements mklint, mklite's custom determinism-analyzer
// suite. The simulation core promises that a run is a pure function of
// (model, seed): no wall-clock reads, no global random state, no bare
// goroutines in model code, no observable map-iteration order, no ad-hoc
// seed derivation. Package analysis enforces that contract mechanically
// with a fact-based static-analysis framework modelled on
// golang.org/x/tools/go/analysis, but built purely on the standard library
// (go/ast, go/types, and `go list -export` data) so the module stays
// dependency-free.
//
// The analyzers are:
//
//   - nowalltime:   forbids time.Now, time.Since, time.Sleep and friends —
//     virtual time must come from sim.Engine.Now / sim.Proc.Sleep.
//   - noglobalrand: forbids math/rand and math/rand/v2 package-level
//     functions and rand.New(rand.NewSource(...)) — randomness must come
//     from sim.RNG streams derived from the run seed.
//   - maprange:     flags `range` over a map whose body has order-dependent
//     effects (slice appends, float accumulation, output writes, event
//     scheduling) — iteration order would leak into results.
//   - nogoroutine:  forbids bare `go` statements everywhere except
//     internal/par, the sanctioned worker-pool fan-out; model concurrency
//     must use the cooperative sim.Proc abstraction.
//   - parshare:     forbids capturing a *sim.RNG (or sim.Engine/sim.Proc)
//     across a par.MapWidthErr closure — per-job streams must be derived inside
//     each job from (seed, index) with sim.StreamSeed.
//   - seedflow:     fact-based, interprocedural seed hygiene — no ad-hoc
//     seed arithmetic flowing into sim.NewRNG/sim.StreamSeed (directly or
//     through any function whose parameter reaches them), no reuse of one
//     seed for two streams, no one RNG serving two stream contexts.
//   - floatorder:   flags order-sensitive floating-point accumulation whose
//     iteration source is a map or channel range or a par closure.
//   - errdrop:      forbids discarding the error results of module-internal
//     APIs (par.MapWidthErr, fault.ParsePlan, trace.Validate, …).
//   - ignoreaudit:  every //mklint:ignore directive must still suppress at
//     least one live diagnostic; stale ignores are errors.
//
// A diagnostic can be suppressed with a directive comment on the same line
// or the line directly above the offending statement:
//
//	//mklint:ignore <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself reported and
// suppresses nothing. Analyzers may attach machine-applicable
// SuggestedFixes to diagnostics; the mklint -fix mode applies them. See
// docs/LINTING.md for the full contract.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis.Analyzer so the suite could migrate to the
// real framework if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //mklint:ignore directives.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string

	// AppliesTo reports whether the analyzer should run on the package
	// with the given import path. A nil AppliesTo means every package.
	AppliesTo func(importPath string) bool

	// Run performs the check on one package, reporting findings through
	// pass.Reportf / pass.Report. It is nil for ignoreaudit, which the
	// driver runs specially after every other analyzer has finished with
	// the package.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with the parsed, type-checked source of a
// single package, a sink for diagnostics, and access to the analyzer's
// cross-package fact store.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	facts   *factStore
	ignores *ignoreIndex
	sink    func(Diagnostic)
}

// A TextEdit describes replacing the source range [Pos, End) with NewText.
// Analyzers express fixes in token.Pos terms; the pass resolves them to
// file offsets when the diagnostic is reported.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string
}

// An Edit is a resolved TextEdit: replace bytes [Start, End) of Filename
// with NewText. Line/column fields (1-based) locate the region for SARIF.
type Edit struct {
	Filename  string
	Start     int
	End       int
	StartLine int
	StartCol  int
	EndLine   int
	EndCol    int
	NewText   string
}

// A SuggestedFix is one machine-applicable remediation for a diagnostic:
// applying every edit (and reformatting) resolves the finding.
type SuggestedFix struct {
	Message string
	Edits   []Edit
}

// A Diagnostic is one finding, located by position, optionally carrying
// machine-applicable fixes.
type Diagnostic struct {
	Pos            token.Position
	Analyzer       string
	Message        string
	SuggestedFixes []SuggestedFix
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless a well-formed //mklint:ignore
// directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...), nil)
}

// ReportFix is Reportf with a machine-applicable suggested fix attached.
func (p *Pass) ReportFix(pos token.Pos, fixMessage string, edits []TextEdit, format string, args ...any) {
	fix := SuggestedFix{Message: fixMessage}
	for _, e := range edits {
		fix.Edits = append(fix.Edits, p.resolveEdit(e))
	}
	p.report(pos, fmt.Sprintf(format, args...), []SuggestedFix{fix})
}

func (p *Pass) resolveEdit(e TextEdit) Edit {
	start := p.Fset.Position(e.Pos)
	end := p.Fset.Position(e.End)
	return Edit{
		Filename:  start.Filename,
		Start:     start.Offset,
		End:       end.Offset,
		StartLine: start.Line,
		StartCol:  start.Column,
		EndLine:   end.Line,
		EndCol:    end.Column,
		NewText:   e.NewText,
	}
}

func (p *Pass) report(pos token.Pos, message string, fixes []SuggestedFix) {
	position := p.Fset.Position(pos)
	if p.ignores.suppresses(p.Analyzer.Name, position) {
		return
	}
	p.sink(Diagnostic{
		Pos:            position,
		Analyzer:       p.Analyzer.Name,
		Message:        message,
		SuggestedFixes: fixes,
	})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NoWallTime,
		NoGlobalRand,
		MapRange,
		NoGoroutine,
		ParShare,
		SeedFlow,
		FloatOrder,
		ErrDrop,
		IgnoreAudit,
	}
}

// An IgnoreInfo is one //mklint:ignore directive found during a run, with
// whether it suppressed at least one diagnostic (Used) — the suite-wide
// suppression inventory behind mklint -ignores.
type IgnoreInfo struct {
	Pos      token.Position
	Analyzer string
	Reason   string
	Used     bool
}

// A Result is the outcome of running a set of analyzers over a set of
// packages.
type Result struct {
	// Diagnostics are the surviving findings, sorted by position, with
	// exact duplicates (same position and message, e.g. from overlapping
	// analyzers) reported once.
	Diagnostics []Diagnostic
	// Ignores is the suppression inventory: every well-formed
	// //mklint:ignore directive seen, in position order.
	Ignores []IgnoreInfo
}

// Run applies every applicable analyzer to every package and returns the
// surviving diagnostics sorted by position. It is Analyze without the
// suppression inventory.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	res, err := Analyze(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	return res.Diagnostics, nil
}

// Analyze applies every applicable analyzer to every package. Packages must
// be in dependency order (the loader's order) so that facts exported while
// analyzing a package are available to every importing package. Malformed
// suppression directives are reported as diagnostics of the pseudo-analyzer
// "mklint"; if the ignoreaudit analyzer is in the set, stale directives are
// reported after the rest of the suite has run on each package.
func Analyze(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	var diags []Diagnostic
	var inventory []IgnoreInfo
	stores := map[string]*factStore{}
	ranNames := map[string]bool{}
	auditIncluded := false
	for _, a := range analyzers {
		if a.Name == IgnoreAudit.Name {
			auditIncluded = true
			continue
		}
		ranNames[a.Name] = true
	}
	for _, pkg := range pkgs {
		ignores := buildIgnoreIndex(pkg.Fset, pkg.Files)
		diags = append(diags, ignores.malformed...)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if a.AppliesTo != nil && !a.AppliesTo(pkg.ImportPath) {
				continue
			}
			store := stores[a.Name]
			if store == nil {
				store = newFactStore()
				stores[a.Name] = store
			}
			store.begin(pkg.ImportPath)
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				facts:     store,
				ignores:   ignores,
				sink:      func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			if err := store.seal(); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		// ignoreaudit runs last: by now every other analyzer has had its
		// chance to be suppressed by each directive of this package.
		if auditIncluded {
			diags = append(diags, auditPackage(pkg, ignores, ranNames)...)
		}
		for _, d := range ignores.all {
			inventory = append(inventory, IgnoreInfo{
				Pos:      d.pos,
				Analyzer: d.analyzer,
				Reason:   d.reason,
				Used:     d.used,
			})
		}
	}
	sortDiagnostics(diags)
	sort.Slice(inventory, func(i, j int) bool {
		a, b := inventory[i], inventory[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return &Result{Diagnostics: dedupe(diags), Ignores: inventory}, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// dedupe drops diagnostics that duplicate an earlier one at the same
// position with the same message — overlapping analyzers (or one analyzer
// reaching a site twice) should cost CI and SARIF one annotation, not two.
// The input must be sorted; the first reporter (analyzer-name order) wins.
func dedupe(diags []Diagnostic) []Diagnostic {
	type key struct {
		file      string
		line, col int
		message   string
	}
	seen := map[key]bool{}
	out := diags[:0]
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	return out
}

// ignorePrefix is the directive marker. Like all Go directives it must
// start the comment with no space after "//".
const ignorePrefix = "//mklint:ignore"

// An ignoreDirective is one parsed //mklint:ignore comment. The same
// directive value is indexed under both lines it covers, so a suppression
// on either marks it used.
type ignoreDirective struct {
	analyzer string
	reason   string
	pos      token.Position // position of the directive comment itself
	end      token.Position // end of the comment, for the deletion fix
	used     bool
}

// An ignoreIndex maps (file, line) to the directives that cover it.
type ignoreIndex struct {
	// byLine maps filename -> line -> directives covering that line.
	byLine    map[string]map[int][]*ignoreDirective
	all       []*ignoreDirective
	malformed []Diagnostic
}

// buildIgnoreIndex scans every comment in the package for //mklint:ignore
// directives. A directive covers its own source line and the next line, so
// both trailing and standalone placements work:
//
//	go p.run(fn) //mklint:ignore nogoroutine engine-managed goroutine
//
//	//mklint:ignore maprange order folded into sorted output below
//	for k := range m {
func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	idx := &ignoreIndex{byLine: map[string]map[int][]*ignoreDirective{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					idx.malformed = append(idx.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "mklint",
						Message: fmt.Sprintf(
							"malformed %s directive: want %q; the reason is mandatory and the directive is ignored",
							ignorePrefix, ignorePrefix+" <analyzer> <reason>"),
					})
					continue
				}
				d := &ignoreDirective{
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
					pos:      pos,
					end:      fset.Position(c.End()),
				}
				idx.all = append(idx.all, d)
				lines := idx.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]*ignoreDirective{}
					idx.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], d)
				lines[pos.Line+1] = append(lines[pos.Line+1], d)
			}
		}
	}
	return idx
}

// suppresses reports whether a well-formed directive for analyzer (or the
// wildcard "all") covers the position, marking the directive used.
func (idx *ignoreIndex) suppresses(analyzer string, pos token.Position) bool {
	lines := idx.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, d := range lines[pos.Line] {
		if d.analyzer == analyzer || d.analyzer == "all" {
			d.used = true
			hit = true
		}
	}
	return hit
}

// pathMatches reports whether importPath is root or lies under it, with
// root anchored at a path-segment boundary.
func pathMatches(importPath, root string) bool {
	return importPath == root ||
		strings.HasSuffix(importPath, "/"+root) ||
		strings.Contains(importPath, "/"+root+"/") ||
		strings.HasPrefix(importPath, root+"/")
}

func pathInAny(importPath string, roots []string) bool {
	for _, root := range roots {
		if pathMatches(importPath, root) {
			return true
		}
	}
	return false
}

// funcFromPkg resolves expr to a package-level *types.Func of a package
// whose import path matches pkgSuffix, returning nil otherwise. It is the
// shared "is this a call to sim.X / par.X?" helper.
func funcFromPkg(info *types.Info, fun ast.Expr, pkgSuffix string) *types.Func {
	var obj types.Object
	switch e := fun.(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	case *ast.Ident:
		obj = info.Uses[e]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !pathMatches(fn.Pkg().Path(), pkgSuffix) {
		return nil
	}
	return fn
}
