package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange flags `range` statements over maps whose bodies have effects
// that observe iteration order. Go randomizes map order per run, so any
// such loop makes results differ between identically seeded runs — the
// exact failure mode the (model, seed) purity contract rules out.
//
// The analyzer looks for five order-sensitive effect classes inside the
// loop body (including nested function literals):
//
//   - appending to a slice declared outside the loop: element order leaks;
//   - compound float accumulation (+=, -=, *=, /=) into a variable
//     declared outside the loop: float arithmetic is not associative, so
//     even a "sum" depends on visit order;
//   - writing output (fmt print functions, Write/WriteString-style
//     methods): bytes are emitted in visit order;
//   - scheduling simulation events (After/At/Spawn/Fire/Send on sim types):
//     the event queue tie-breaks by insertion order, so scheduling from a
//     map range perturbs the whole downstream timeline;
//   - calling a method on a *sim.RNG declared outside the loop (a draw, or a
//     Split that advances it): each key gets the draw of its visit position.
//
// Loops whose bodies only do order-independent work (counting into ints,
// writing other map keys, finding a max) are not flagged. To iterate
// deterministically, range over sorted keys — slices.Sorted(maps.Keys(m))
// — or suppress a genuinely safe site with
// //mklint:ignore maprange <reason>.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc: "flag map iteration whose body appends to slices, accumulates " +
		"floats, writes output, schedules events, or draws from an outside " +
		"RNG — iteration order would leak into results; iterate sorted keys instead",
	Run: runMapRange,
}

func runMapRange(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if effect := findOrderEffect(pass, rs); effect != "" {
				pass.Reportf(rs.Pos(), "iteration over map %s %s; iterate sorted keys (e.g. slices.Sorted(maps.Keys(m))) or annotate //mklint:ignore maprange <reason> (determinism contract, see docs/LINTING.md)",
					exprString(rs.X), effect)
			}
			return true
		})
	}
	return nil
}

// findOrderEffect scans the body of a map-range statement for the first
// order-sensitive effect and describes it, or returns "".
func findOrderEffect(pass *Pass, rs *ast.RangeStmt) string {
	var effect string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if e := assignEffect(pass, rs, n); e != "" {
				effect = e
				return false
			}
		case *ast.CallExpr:
			if e := callEffect(pass, rs, n); e != "" {
				effect = e
				return false
			}
		}
		return true
	})
	return effect
}

// assignEffect classifies an assignment inside the loop body.
func assignEffect(pass *Pass, rs *ast.RangeStmt, as *ast.AssignStmt) string {
	// Slice growth: x = append(x, ...) with x declared outside the loop.
	if as.Tok == token.ASSIGN || as.Tok == token.DEFINE {
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) || i >= len(as.Lhs) {
				continue
			}
			if declaredOutside(pass, rs, as.Lhs[i]) {
				return fmt.Sprintf("appends to %s, which outlives the loop", exprString(as.Lhs[i]))
			}
		}
		return ""
	}
	// Compound accumulation: only float targets are order-sensitive
	// (integer addition is associative; map-element updates touch each
	// key once). Indexed targets like m2[k] += v are per-key independent.
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := as.Lhs[0]
		if _, indexed := lhs.(*ast.IndexExpr); indexed {
			return ""
		}
		tv, ok := pass.TypesInfo.Types[lhs]
		if !ok || tv.Type == nil {
			return ""
		}
		basic, ok := tv.Type.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsFloat == 0 {
			return ""
		}
		if declaredOutside(pass, rs, lhs) {
			return fmt.Sprintf("accumulates into float %s — float addition is not associative, so the total depends on visit order", exprString(lhs))
		}
	}
	return ""
}

// outputFuncs are fmt package-level print functions that emit bytes.
var outputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// writerMethods are method names that append to an output or digest stream.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Print": true, "Printf": true, "Println": true,
}

// schedulingMethods are the sim package entry points that enqueue events or
// processes; calling them in map order reorders the event queue's
// same-timestamp tie-breaking.
var schedulingMethods = map[string]bool{
	"After": true, "At": true, "Spawn": true, "Fire": true, "Send": true,
}

// callEffect classifies a call inside the loop body.
func callEffect(pass *Pass, rs *ast.RangeStmt, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return ""
	}
	if sig.Recv() == nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && outputFuncs[fn.Name()] {
			return fmt.Sprintf("writes output via fmt.%s in iteration order", fn.Name())
		}
		return ""
	}
	if writerMethods[fn.Name()] {
		return fmt.Sprintf("writes to a stream via %s in iteration order", exprString(sel))
	}
	simType := recvSimType(sig)
	if schedulingMethods[fn.Name()] && simType != "" {
		return fmt.Sprintf("schedules simulation events via %s in iteration order", exprString(sel))
	}
	if simType == "RNG" && declaredOutside(pass, rs, sel.X) {
		return fmt.Sprintf("draws from %s, declared outside the loop, via %s — which key gets which draw depends on visit order", exprString(sel.X), exprString(sel))
	}
	return ""
}

// recvSimType returns the name of the method receiver's type when that type
// lives in the simulation core package, or "".
func recvSimType(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	if path := named.Obj().Pkg().Path(); path != "mklite/internal/sim" && path != "sim" {
		return ""
	}
	return named.Obj().Name()
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// declaredOutside reports whether the base identifier of expr refers to an
// object declared outside the range statement (so mutations survive the
// loop). Unresolvable expressions are treated as inside, erring quiet.
func declaredOutside(pass *Pass, rs *ast.RangeStmt, expr ast.Expr) bool {
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
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}

// baseIdent unwraps selectors, indexing, derefs and parens to the leftmost
// identifier.
func baseIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// exprString renders a short source-like form of simple expressions for
// diagnostics.
func exprString(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.BasicLit:
		return e.Value
	case *ast.BinaryExpr:
		return exprString(e.X) + e.Op.String() + exprString(e.Y)
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	default:
		return "expression"
	}
}
