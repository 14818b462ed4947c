package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatOrder flags order-sensitive floating-point accumulation: a compound
// float assignment (+=, -=, *=, /=) whose target outlives an iteration
// context that does not have a deterministic order. Float arithmetic is not
// associative, so the total depends on visit order — the hw/tlb.go bug
// class PR 1 found by hand, enforced permanently. Three contexts are
// nondeterministically ordered:
//
//   - the body of a `range` over a map: Go randomizes map order per run;
//   - the body of a `range` over a channel: receive order is producer
//     scheduling;
//   - a closure passed to par.MapWidthErr accumulating into a captured
//     variable: workers run concurrently, so beyond the data race the sum's
//     grouping follows worker completion order.
//
// Accumulating into a variable declared inside the context is fine (it dies
// with the iteration), as is indexed accumulation (m[k] += v touches each
// key once; s[i] += v is per-job). The fix is to accumulate per-iteration
// values into an index-ordered slice (par results are index-ordered by
// contract) or to iterate sorted keys, then reduce sequentially.
var FloatOrder = &Analyzer{
	Name: "floatorder",
	Doc: "flag compound float accumulation whose iteration source has no " +
		"deterministic order (map range, channel range, par closure); " +
		"reduce index-ordered results sequentially instead",
	Run: runFloatOrder,
}

func runFloatOrder(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				tv, ok := pass.TypesInfo.Types[n.X]
				if !ok || tv.Type == nil {
					return true
				}
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					reportFloatAccum(pass, n.Body, n, "a map range: iteration order is randomized per run")
				case *types.Chan:
					reportFloatAccum(pass, n.Body, n, "a channel range: receive order follows producer scheduling")
				}
			case *ast.CallExpr:
				if !isParCall(pass, n) {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						reportFloatAccum(pass, lit.Body, lit, "a par closure: worker completion order groups the sum nondeterministically (and the write races)")
					}
				}
			}
			return true
		})
	}
	return nil
}

// reportFloatAccum flags every compound float assignment inside body whose
// target is declared outside the context node.
func reportFloatAccum(pass *Pass, body *ast.BlockStmt, context ast.Node, why string) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		lhs := as.Lhs[0]
		if _, indexed := lhs.(*ast.IndexExpr); indexed {
			return true // per-key / per-index update: each element touched once
		}
		tv, ok := pass.TypesInfo.Types[lhs]
		if !ok || tv.Type == nil {
			return true
		}
		basic, ok := tv.Type.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsFloat == 0 {
			return true
		}
		if !declaredOutsideNode(pass, context, lhs) {
			return true
		}
		pass.Reportf(as.Pos(),
			"float accumulation into %s inside %s; float addition is not associative, so the total depends on visit order — collect per-iteration values index-ordered and reduce sequentially (determinism contract, see docs/LINTING.md)",
			exprString(lhs), why)
		return true
	})
}

// declaredOutsideNode reports whether the base identifier of expr refers to
// an object declared outside the context node.
func declaredOutsideNode(pass *Pass, context ast.Node, expr ast.Expr) bool {
	id := baseIdent(expr)
	if id == nil {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() < context.Pos() || obj.Pos() >= context.End()
}
