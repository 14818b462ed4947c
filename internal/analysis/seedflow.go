package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
)

// SeedFlow enforces seed-derivation hygiene interprocedurally. The
// determinism contract does not just require *a* deterministic stream — it
// requires streams that are statistically independent, which ad-hoc seed
// arithmetic silently breaks: base+i*prime seeds are nearby states of the
// same SplitMix64 sequence (the exact correlated-repetition bug PR 2 fixed
// by hand), seed^mix collides across families, and one seed handed to two
// constructors yields the same stream twice. sim.StreamSeed is the one
// sanctioned derivation.
//
// The analyzer is fact-based: a function whose parameter flows into
// sim.NewRNG or the base argument of sim.StreamSeed — directly or through
// any chain of calls — exports a fact marking that parameter as a seed
// sink, so a call in any importing package is checked against the same
// rules as a direct sim.NewRNG call. Likewise a function that draws from a
// *sim.RNG parameter exports a fact, so handing one generator to two
// drawing helpers is visible across package boundaries.
//
// Four rules:
//
//  1. ad-hoc seed arithmetic: any non-constant arithmetic expression in a
//     seed position (sim.NewRNG's argument, sim.StreamSeed's base, a
//     fact-marked parameter). The base+i*prime shape carries a
//     machine-applicable fix rewriting it to sim.StreamSeed(base, uint64(i)).
//  2. seed reuse: one seed variable consumed by two stream constructions in
//     the same function — two sim.NewRNG calls (identical streams),
//     sim.NewRNG(s) mixed with sim.StreamSeed(s, …) (the NewRNG draw
//     sequence *is* StreamSeed(s, 0), StreamSeed(s, 1), …), or two
//     sim.StreamSeed calls with the same constant stream id.
//  3. per-job seed capture: sim.NewRNG (or a fact-marked consumer) applied
//     inside a par closure to a seed declared outside it — every job gets
//     the identical stream; derive per-job streams from the job index.
//  4. stream contexts: one *sim.RNG drawn from (directly or via fact-marked
//     callees) in two separate sibling loops — the later loop's draws
//     depend on the earlier loop's draw count, so logically independent
//     phases become coupled; each phase derives its own stream with Split.
//
// Variables that are reassigned between uses are exempt from rules 2 and 4:
// reassignment makes the value a genuinely new seed/stream.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc: "forbid ad-hoc seed arithmetic (base+i*prime, xor-mixing) flowing " +
		"into sim.NewRNG/sim.StreamSeed directly or through any call chain, " +
		"reuse of one seed for two streams, and one RNG drawn from in two " +
		"stream contexts; derive streams with sim.StreamSeed / RNG.Split",
	Run: runSeedFlow,
}

// seedParamsFact marks the parameters of a function that flow into a seed
// sink (sim.NewRNG, sim.StreamSeed's base, or another marked parameter).
type seedParamsFact struct{ Params []int }

func (*seedParamsFact) AFact() {}

// rngParamsFact marks the *sim.RNG parameters a function draws from.
type rngParamsFact struct{ Params []int }

func (*rngParamsFact) AFact() {}

func init() {
	RegisterFact(&seedParamsFact{})
	RegisterFact(&rngParamsFact{})
}

// rngDrawMethods are the *sim.RNG methods that consume the stream. Split
// is deliberately absent: deriving an independent generator is the
// sanctioned way to open a new stream context.
var rngDrawMethods = map[string]bool{
	"Uint64": true, "Float64": true, "Intn": true,
	"Bool": true, "ExpFloat64": true, "NormFloat64": true,
	"Pareto": true, "Poisson": true,
}

// funcSeedInfo is the in-flight fact state for one function of the package
// under analysis.
type funcSeedInfo struct {
	seedParams map[int]bool
	rngParams  map[int]bool
}

type seedFlow struct {
	pass  *Pass
	decls map[*types.Func]*ast.FuncDecl
	local map[*types.Func]*funcSeedInfo
}

func runSeedFlow(pass *Pass) error {
	sf := &seedFlow{
		pass:  pass,
		decls: map[*types.Func]*ast.FuncDecl{},
		local: map[*types.Func]*funcSeedInfo{},
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sf.decls[fn] = fd
			sf.local[fn] = &funcSeedInfo{seedParams: map[int]bool{}, rngParams: map[int]bool{}}
		}
	}
	sf.fixpoint()
	if err := sf.exportFacts(); err != nil {
		return err
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				sf.checkBody(fd)
			}
		}
	}
	return nil
}

// fixpoint propagates seed/rng parameter marks through intra-package call
// chains (including mutual recursion) until stable. Cross-package calls
// consult facts exported by earlier passes; packages arrive in dependency
// order, so those are already sealed.
func (sf *seedFlow) fixpoint() {
	for changed := true; changed; {
		changed = false
		for fn, fd := range sf.decls {
			if sf.markParams(fn, fd) {
				changed = true
			}
		}
	}
}

// markParams scans one function body and marks parameters that reach a seed
// sink or are drawn from, reporting whether anything new was learned.
func (sf *seedFlow) markParams(fn *types.Func, fd *ast.FuncDecl) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	paramIndex := map[*types.Var]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		paramIndex[sig.Params().At(i)] = i
	}
	info := sf.local[fn]
	changed := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		seedArgs, _ := sf.seedPositions(call)
		for _, ai := range seedArgs {
			if ai >= len(call.Args) {
				continue
			}
			for _, pv := range paramUses(sf.pass.TypesInfo, call.Args[ai], paramIndex) {
				if isIntegerVar(pv) && !info.seedParams[paramIndex[pv]] {
					info.seedParams[paramIndex[pv]] = true
					changed = true
				}
			}
		}
		for _, ai := range sf.rngPositions(call) {
			if ai >= len(call.Args) {
				continue
			}
			for _, pv := range paramUses(sf.pass.TypesInfo, call.Args[ai], paramIndex) {
				if isSimRNGPtr(pv.Type()) && !info.rngParams[paramIndex[pv]] {
					info.rngParams[paramIndex[pv]] = true
					changed = true
				}
			}
		}
		// A draw method on a *sim.RNG parameter marks it directly.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && rngDrawMethods[sel.Sel.Name] {
			if id, ok := sel.X.(*ast.Ident); ok {
				if pv, ok := sf.pass.TypesInfo.Uses[id].(*types.Var); ok {
					if pi, isParam := paramIndex[pv]; isParam && isSimRNGPtr(pv.Type()) && isSimRNGMethod(sf.pass.TypesInfo, sel) && !info.rngParams[pi] {
						info.rngParams[pi] = true
						changed = true
					}
				}
			}
		}
		return true
	})
	return changed
}

// exportFacts publishes the non-empty marks for importing packages.
func (sf *seedFlow) exportFacts() error {
	for fn, info := range sf.local {
		if len(info.seedParams) > 0 {
			if err := sf.pass.ExportObjectFact(fn, &seedParamsFact{Params: sortedKeys(info.seedParams)}); err != nil {
				return err
			}
		}
		if len(info.rngParams) > 0 {
			if err := sf.pass.ExportObjectFact(fn, &rngParamsFact{Params: sortedKeys(info.rngParams)}); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortedKeys(m map[int]bool) []int {
	return slices.Sorted(maps.Keys(m))
}

// seedKind distinguishes the two consumption shapes for the reuse rule.
type seedKind int

const (
	seedDirect seedKind = iota // sim.NewRNG / fact-marked parameter
	seedBase                   // sim.StreamSeed base argument
)

// seedPositions returns the argument indices of call that are seed
// positions, and whether they are direct constructions or StreamSeed bases.
func (sf *seedFlow) seedPositions(call *ast.CallExpr) ([]int, seedKind) {
	if fn := funcFromPkg(sf.pass.TypesInfo, call.Fun, "internal/sim"); fn != nil {
		switch fn.Name() {
		case "NewRNG":
			return []int{0}, seedDirect
		case "StreamSeed":
			return []int{0}, seedBase
		}
		// Other sim functions (NewEngine, …) fall through to the fact
		// lookup like any module function.
	}
	fn := calleeFunc(sf.pass.TypesInfo, call)
	if fn == nil {
		return nil, seedDirect
	}
	if info, ok := sf.local[fn]; ok {
		return sortedKeys(info.seedParams), seedDirect
	}
	var fact seedParamsFact
	if sf.pass.ImportObjectFact(fn, &fact) {
		return fact.Params, seedDirect
	}
	return nil, seedDirect
}

// rngPositions returns the argument indices of call through which a
// *sim.RNG would be drawn from by the callee.
func (sf *seedFlow) rngPositions(call *ast.CallExpr) []int {
	fn := calleeFunc(sf.pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	if info, ok := sf.local[fn]; ok {
		return sortedKeys(info.rngParams)
	}
	var fact rngParamsFact
	if sf.pass.ImportObjectFact(fn, &fact) {
		return fact.Params
	}
	return nil
}

// calleeFunc resolves the called function or method, if statically known.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch e := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	case *ast.Ident:
		obj = info.Uses[e]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// paramUses returns the parameters of paramIndex referenced anywhere inside
// expr.
func paramUses(info *types.Info, expr ast.Expr, paramIndex map[*types.Var]int) []*types.Var {
	var out []*types.Var
	seen := map[*types.Var]bool{}
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := info.Uses[id].(*types.Var); ok {
			if _, isParam := paramIndex[v]; isParam && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return true
	})
	return out
}

func isIntegerVar(v *types.Var) bool {
	basic, ok := v.Type().Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// isSimRNGPtr reports whether t is *sim.RNG.
func isSimRNGPtr(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj().Name() == "RNG" && named.Obj().Pkg() != nil &&
		pathMatches(named.Obj().Pkg().Path(), "internal/sim")
}

// isSimRNGMethod reports whether sel resolves to a method of sim.RNG.
func isSimRNGMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "RNG" && named.Obj().Pkg() != nil &&
		pathMatches(named.Obj().Pkg().Path(), "internal/sim")
}

// --- per-function body checks ---

// seedUse is one consumption of a seed variable.
type seedUse struct {
	obj       *types.Var
	kind      seedKind
	streamVal constant.Value // constant stream id for StreamSeed, else nil
	pos       token.Pos
	desc      string
}

// drawSite is one draw from an RNG variable.
type drawSite struct {
	obj  *types.Var
	pos  token.Pos
	loop ast.Node // outermost enclosing loop within the function, or nil
}

func (sf *seedFlow) checkBody(fd *ast.FuncDecl) {
	info := sf.pass.TypesInfo
	var (
		uses     []seedUse
		draws    []drawSite
		assigned = map[*types.Var]bool{}
		stack    []ast.Node
	)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						assigned[v] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if id, ok := n.X.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					assigned[v] = true
				}
			}
		case *ast.CallExpr:
			sf.checkCall(fd, n, stack, &uses, &draws)
		}
		return true
	})

	sf.checkReuse(uses, assigned)
	sf.checkStreamContexts(draws, assigned)
}

// checkCall handles one call expression: ad-hoc arithmetic in seed
// positions, seed-consumption recording, par-closure seed capture, and draw
// recording.
func (sf *seedFlow) checkCall(fd *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node, uses *[]seedUse, draws *[]drawSite) {
	info := sf.pass.TypesInfo
	seedArgs, kind := sf.seedPositions(call)
	for _, ai := range seedArgs {
		if ai >= len(call.Args) {
			continue
		}
		arg := call.Args[ai]
		sf.checkAdhocArith(call, arg)
		core := unwrapConversions(info, arg)
		id, ok := core.(*ast.Ident)
		if !ok {
			continue
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			continue
		}
		var streamVal constant.Value
		if kind == seedBase && len(call.Args) > 1 {
			if tv, ok := info.Types[call.Args[1]]; ok {
				streamVal = tv.Value
			}
		}
		*uses = append(*uses, seedUse{
			obj: v, kind: kind, streamVal: streamVal,
			pos: arg.Pos(), desc: callDesc(call),
		})
		if kind == seedDirect {
			sf.checkParClosureSeed(call, v, stack)
		}
	}
	// Draws: rng.Method() on a *sim.RNG variable, and rng handed to a
	// fact-marked drawing callee.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && rngDrawMethods[sel.Sel.Name] && isSimRNGMethod(info, sel) {
		if id, ok := sel.X.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && isSimRNGPtr(v.Type()) {
				sf.recordDraw(v, sel.Pos(), stack, draws)
			}
		}
	}
	for _, ai := range sf.rngPositions(call) {
		if ai >= len(call.Args) {
			continue
		}
		if id, ok := unwrapConversions(info, call.Args[ai]).(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && isSimRNGPtr(v.Type()) {
				sf.recordDraw(v, call.Args[ai].Pos(), stack, draws)
			}
		}
	}
}

// recordDraw registers a draw site with its outermost enclosing loop.
// Draws inside function literals are skipped: closures are parshare's and
// rule 3's domain, and attributing them to the outer function's loop
// structure would mislabel the context.
func (sf *seedFlow) recordDraw(v *types.Var, pos token.Pos, stack []ast.Node, draws *[]drawSite) {
	var loop ast.Node
	for _, n := range stack[:len(stack)-1] {
		switch n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ForStmt, *ast.RangeStmt:
			if loop == nil {
				loop = n
			}
		}
	}
	*draws = append(*draws, drawSite{obj: v, pos: pos, loop: loop})
}

// checkParClosureSeed reports a seed declared outside a par closure being
// consumed inside it: every job would construct the identical stream.
func (sf *seedFlow) checkParClosureSeed(call *ast.CallExpr, v *types.Var, stack []ast.Node) {
	for i := len(stack) - 2; i >= 0; i-- {
		lit, ok := stack[i].(*ast.FuncLit)
		if !ok {
			continue
		}
		if i == 0 {
			return
		}
		parent, ok := stack[i-1].(*ast.CallExpr)
		if !ok || !isParCall(sf.pass, parent) {
			continue
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return // declared inside the closure: per-job, fine
		}
		sf.pass.Reportf(call.Pos(),
			"seed %q is consumed inside a par closure but declared outside it: every job constructs the identical stream; derive a per-job seed with sim.StreamSeed(%s, uint64(i)) (determinism contract, see docs/LINTING.md)",
			v.Name(), v.Name())
		return
	}
}

// checkAdhocArith flags non-constant arithmetic in a seed position and,
// for the base+i*prime shape at a direct sim call, attaches the
// StreamSeed rewrite as a machine-applicable fix.
func (sf *seedFlow) checkAdhocArith(call *ast.CallExpr, arg ast.Expr) {
	info := sf.pass.TypesInfo
	core := unwrapConversions(info, arg)
	bin, ok := core.(*ast.BinaryExpr)
	if !ok || !arithmeticOp(bin.Op) {
		return
	}
	if tv, ok := info.Types[core]; ok && tv.Value != nil {
		return // fully constant: a fixed literal seed, not index arithmetic
	}
	msg := fmt.Sprintf(
		"ad-hoc seed arithmetic %s in a seed position of %s: derived seeds land on nearby states of the same SplitMix64 sequence, correlating the streams; derive sub-streams with sim.StreamSeed(base, stream) (determinism contract, see docs/LINTING.md)",
		exprString(core), callDesc(call))
	if base, index, ok := streamSeedShape(info, bin); ok {
		if qual := simQualifier(sf.pass, call); qual != "" {
			fix := fmt.Sprintf("%s.StreamSeed(%s, uint64(%s))", qual, exprString(base), exprString(index))
			sf.pass.ReportFix(arg.Pos(),
				"rewrite to "+fix,
				[]TextEdit{{Pos: arg.Pos(), End: arg.End(), NewText: fix}},
				"%s", msg)
			return
		}
	}
	sf.pass.Reportf(arg.Pos(), "%s", msg)
}

// streamSeedShape recognizes base+i*prime (in any operand order) and
// returns the base and index expressions.
func streamSeedShape(info *types.Info, bin *ast.BinaryExpr) (base, index ast.Expr, ok bool) {
	if bin.Op != token.ADD {
		return nil, nil, false
	}
	classify := func(e ast.Expr) (ast.Expr, bool) {
		// i*prime or prime*i with exactly one constant factor; or a bare
		// non-constant identifier.
		if mul, isMul := e.(*ast.BinaryExpr); isMul && mul.Op == token.MUL {
			xc := isConstExpr(info, mul.X)
			yc := isConstExpr(info, mul.Y)
			if xc != yc {
				if xc {
					return mul.Y, true
				}
				return mul.X, true
			}
			return nil, false
		}
		return e, true
	}
	left, right := bin.X, bin.Y
	lIdx, lOK := classify(left)
	rIdx, rOK := classify(right)
	switch {
	case isPlainRef(left) && rOK && !isConstExpr(info, right):
		return left, unwrapConversions(info, rIdx), true
	case isPlainRef(right) && lOK && !isConstExpr(info, left):
		return right, unwrapConversions(info, lIdx), true
	}
	return nil, nil, false
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// isPlainRef reports whether e is an identifier or selector chain —
// something exprString can render back losslessly for a fix.
func isPlainRef(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return isPlainRef(e.X)
	}
	return false
}

// simQualifier returns the package qualifier under which the sim package is
// referenced by this call (normally "sim"), or "" when the call does not go
// through a package selector — in which case a fix cannot safely name sim.
func simQualifier(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if fn := funcFromPkg(pass.TypesInfo, call.Fun, "internal/sim"); fn == nil {
		return ""
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func arithmeticOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.XOR, token.OR, token.AND, token.AND_NOT, token.SHL, token.SHR:
		return true
	}
	return false
}

// unwrapConversions strips parentheses and type conversions so uint64(x)
// and (x) expose x.
func unwrapConversions(info *types.Info, e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			if len(x.Args) == 1 {
				if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
					e = x.Args[0]
					continue
				}
			}
			return e
		default:
			return e
		}
	}
}

func callDesc(call *ast.CallExpr) string {
	return exprString(call.Fun) + "(...)"
}

// checkReuse applies rule 2 over the consumption record of one function.
func (sf *seedFlow) checkReuse(uses []seedUse, assigned map[*types.Var]bool) {
	byObj := map[*types.Var][]seedUse{}
	var order []*types.Var
	for _, u := range uses {
		if assigned[u.obj] {
			continue // reassigned between uses: a genuinely new value
		}
		if _, ok := byObj[u.obj]; !ok {
			order = append(order, u.obj)
		}
		byObj[u.obj] = append(byObj[u.obj], u)
	}
	for _, obj := range order {
		us := byObj[obj]
		sort.Slice(us, func(i, j int) bool { return us[i].pos < us[j].pos })
		var firstDirect, firstBase *seedUse
		for i := range us {
			u := &us[i]
			switch u.kind {
			case seedDirect:
				if firstDirect != nil {
					sf.pass.Reportf(u.pos,
						"seed %q already constructs a stream at %s via %s: two streams from one seed are identical; derive independent sub-streams with sim.StreamSeed(%s, k) (determinism contract, see docs/LINTING.md)",
						obj.Name(), sf.pass.Fset.Position(firstDirect.pos), firstDirect.desc, obj.Name())
					continue
				}
				firstDirect = u
				if firstBase != nil {
					sf.pass.Reportf(u.pos,
						"seed %q is used both as a sim.StreamSeed base (at %s) and to construct a stream directly: sim.NewRNG(%s)'s draw sequence is exactly StreamSeed(%s, 0), StreamSeed(%s, 1), …, so the streams overlap; use StreamSeed-derived seeds for both (determinism contract, see docs/LINTING.md)",
						obj.Name(), sf.pass.Fset.Position(firstBase.pos), obj.Name(), obj.Name(), obj.Name())
				}
			case seedBase:
				if firstBase == nil {
					firstBase = u
					if firstDirect != nil {
						sf.pass.Reportf(u.pos,
							"seed %q is used both to construct a stream directly (at %s) and as a sim.StreamSeed base: sim.NewRNG(%s)'s draw sequence is exactly StreamSeed(%s, 0), StreamSeed(%s, 1), …, so the streams overlap; use StreamSeed-derived seeds for both (determinism contract, see docs/LINTING.md)",
							obj.Name(), sf.pass.Fset.Position(firstDirect.pos), obj.Name(), obj.Name(), obj.Name())
					}
				}
			}
		}
		// Two StreamSeed calls with the same constant stream id.
		seenStreams := map[string]*seedUse{}
		for i := range us {
			u := &us[i]
			if u.kind != seedBase || u.streamVal == nil {
				continue
			}
			key := u.streamVal.ExactString()
			if prev, dup := seenStreams[key]; dup {
				sf.pass.Reportf(u.pos,
					"sim.StreamSeed(%s, %s) repeats the derivation at %s: the same sub-stream seeds two generators; use distinct stream ids (determinism contract, see docs/LINTING.md)",
					obj.Name(), key, sf.pass.Fset.Position(prev.pos))
			} else {
				seenStreams[key] = u
			}
		}
	}
}

// checkStreamContexts applies rule 4: one RNG drawn from in two sibling
// loops couples logically independent phases.
func (sf *seedFlow) checkStreamContexts(draws []drawSite, assigned map[*types.Var]bool) {
	byObj := map[*types.Var][]drawSite{}
	var order []*types.Var
	for _, d := range draws {
		if d.loop == nil || assigned[d.obj] {
			continue
		}
		if _, ok := byObj[d.obj]; !ok {
			order = append(order, d.obj)
		}
		byObj[d.obj] = append(byObj[d.obj], d)
	}
	for _, obj := range order {
		ds := byObj[obj]
		sort.Slice(ds, func(i, j int) bool { return ds[i].pos < ds[j].pos })
		firstLoop := ds[0].loop
		for _, d := range ds[1:] {
			if d.loop != firstLoop {
				sf.pass.Reportf(d.pos,
					"RNG %q is drawn from in a second loop (first context at %s): this phase's draws depend on how many draws the earlier loop made, coupling logically independent streams; give each phase its own generator — %s.Split() or sim.NewRNG(sim.StreamSeed(seed, phase)) (determinism contract, see docs/LINTING.md)",
					obj.Name(), sf.pass.Fset.Position(ds[0].pos), obj.Name())
				break
			}
		}
	}
}
