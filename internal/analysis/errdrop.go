package analysis

import (
	"go/ast"
	"go/types"
)

// modulePathPrefix identifies module-internal packages: errdrop guards the
// module's own APIs, whose error returns all carry determinism- or
// contract-relevant information (par.MapWidthErr propagates job failures in
// lowest-index order, fault.ParsePlan rejects malformed plans,
// trace.Validate rejects corrupt event streams, obs.ParseSLO rejects
// non-finite thresholds). Discarding one silently turns a hard contract violation
// into an unexplained wrong number.
const modulePathPrefix = "mklite"

// ErrDrop forbids discarding the error result of a module-internal call:
// calling it as a bare statement, deferring it, or assigning the error to
// the blank identifier. Handle it or return it; if a site provably cannot
// fail, say why with //mklint:ignore errdrop <reason>.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc: "forbid discarding error results of module-internal APIs " +
		"(par.MapWidthErr, fault.ParsePlan, trace.Validate, obs.ParseSLO, …): " +
		"handle the error or annotate why the site cannot fail",
	Run: runErrDrop,
}

func runErrDrop(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDroppedCall(pass, call, "the call discards it")
				}
			case *ast.DeferStmt:
				checkDroppedCall(pass, n.Call, "defer discards it")
			case *ast.GoStmt:
				checkDroppedCall(pass, n.Call, "the goroutine discards it")
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// moduleErrFunc resolves call to a module-internal function or method whose
// last result is error, or nil.
func moduleErrFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if fn.Pkg().Path() != modulePathPrefix &&
		!pathMatches(fn.Pkg().Path(), modulePathPrefix) {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	if !ok || named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
		return nil
	}
	return fn
}

// checkDroppedCall reports a statement-position call whose error result is
// thrown away entirely.
func checkDroppedCall(pass *Pass, call *ast.CallExpr, how string) {
	fn := moduleErrFunc(pass, call)
	if fn == nil {
		return
	}
	pass.Reportf(call.Pos(),
		"%s returns an error and %s: module-internal errors carry contract violations (bad plan, corrupt trace, failed job) — handle it, return it, or annotate //mklint:ignore errdrop <reason> (see docs/LINTING.md)",
		qualifiedName(fn), how)
}

// checkBlankAssign reports `x, _ := pkg.F()` where the blank identifier
// swallows the error result.
func checkBlankAssign(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn := moduleErrFunc(pass, call)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	errIndex := sig.Results().Len() - 1
	if errIndex >= len(as.Lhs) {
		return
	}
	// Single-result error assigned to a named variable is handled
	// elsewhere; only the blank identifier is a drop.
	if id, ok := as.Lhs[errIndex].(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(as.Pos(),
			"%s returns an error and the blank identifier discards it: module-internal errors carry contract violations — handle it, return it, or annotate //mklint:ignore errdrop <reason> (see docs/LINTING.md)",
			qualifiedName(fn))
	}
}

// qualifiedName renders pkg.Func or pkg.Type.Method for diagnostics.
func qualifiedName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return fn.Pkg().Name() + "." + name
}
