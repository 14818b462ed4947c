package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// parFuncs are the fan-out entry points of internal/par whose closure
// arguments the analyzer inspects: MapWidthErr and the Pipe's Submit,
// whose job runs on a worker while the submitting loop carries on.
var parFuncs = map[string]bool{
	"MapWidthErr": true,
	"Submit":      true,
}

// sharedTypeGroups lists the types that are per-job state by contract,
// grouped by owning package. Sharing one across par jobs races, and — worse
// for the reproducibility gate — makes the run a function of worker
// scheduling:
//
//   - internal/sim: a shared RNG's draw order depends on which worker draws
//     first; Engine and Proc carry the whole simulation state.
//   - internal/trace: Sink/Counters/Events are single-goroutine by design
//     (no locks on the emission path), so concurrent emission corrupts the
//     counts and interleaves the event ring nondeterministically. Each job
//     builds its own sink inside the closure; aggregation happens by
//     merging in index order after the join.
//   - internal/metrics: Registry/Histogram record with plain int64
//     increments under the same single-goroutine contract as the sink
//     that feeds them; a shared registry races and merges rank histograms
//     in worker order.
//   - internal/fault: an Injector owns its run's fault RNG stream; sharing
//     one across jobs makes each job's fault draws depend on which worker
//     drew first — the exact scheduling leak the fault determinism
//     contract (internal/fault point 2) forbids.
//   - internal/fleet: Scheduler and Allocator are one facility run's
//     mutable queue/occupancy state. The scheduler's event loop is
//     sequential by contract; a par worker touching either would make node
//     placement — and every co-tenancy-scaled interference plan derived
//     from it — depend on worker scheduling. Launched jobs receive
//     immutable launch specs instead.
//   - internal/obs: Timeline and DecisionLog are one observed facility
//     run's artifact state, fed by the scheduler's sequential commit loop.
//     A par worker emitting into either would interleave occupancy spans
//     and decision records in worker order, breaking the byte-identical-
//     at-any-width contract; workers build job-local rings and counters,
//     merged in launch order when the scheduler resolves each job.
//   - internal/sched: State is one run's mutable scheduler state — the
//     adaptive policy's EMA, live quantum and RNG stream all advance on
//     every Step, so a State shared across par jobs makes quantum
//     adaptation (and the draws behind it) depend on which worker stepped
//     first. Policy is guarded with it: a policy handle's only job-side
//     use is minting per-run State, and the contract keeps both derivations
//     inside the closure (k.Sched().NewState(...) per job).
var sharedTypeGroups = []struct {
	pkg   string // import-path suffix of the owning package
	disp  string // display prefix in diagnostics
	names map[string]bool
}{
	{"internal/sim", "sim", map[string]bool{"RNG": true, "Engine": true, "Proc": true}},
	{"internal/trace", "trace", map[string]bool{"Sink": true, "Counters": true, "Events": true}},
	{"internal/metrics", "metrics", map[string]bool{"Registry": true, "Histogram": true}},
	{"internal/fault", "fault", map[string]bool{"Injector": true}},
	{"internal/fleet", "fleet", map[string]bool{"Scheduler": true, "Allocator": true}},
	{"internal/obs", "obs", map[string]bool{"Timeline": true, "DecisionLog": true}},
	{"internal/sched", "sched", map[string]bool{"Policy": true, "State": true}},
}

// ParShare rejects par.MapWidthErr closures that capture per-job state — a
// *sim.RNG (or sim.Engine/sim.Proc) or a *trace.Sink (or
// trace.Counters/trace.Events) — from an enclosing scope, and forbids
// package-level trace sinks outright.
// Each job derives its own stream and builds its own sink inside the
// closure; merged aggregation happens after the join.
var ParShare = &Analyzer{
	Name: "parshare",
	Doc: "forbid capturing a *sim.RNG (or sim.Engine/sim.Proc), a " +
		"*trace.Sink (or trace.Counters/trace.Events), a " +
		"*metrics.Registry (or metrics.Histogram), a *fault.Injector, a " +
		"*fleet.Scheduler (or fleet.Allocator), an *obs.Timeline (or " +
		"obs.DecisionLog) or a sched.Policy (or sched.State) across a " +
		"par.MapWidthErr or par.Pipe.Submit closure, " +
		"and forbid package-level trace sinks and metrics registries; " +
		"per-job state is derived inside the job and merged after the join",
	Run: runParShare,
}

func runParShare(pass *Pass) error {
	// internal/trace and internal/metrics own the guarded observation
	// types; their declarations are the implementation, not a leak.
	ownerPkg := pass.Pkg != nil &&
		(pathMatches(pass.Pkg.Path(), "internal/trace") ||
			pathMatches(pass.Pkg.Path(), "internal/metrics"))
	for _, f := range pass.Files {
		if !ownerPkg {
			checkGlobalSinks(pass, f)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isParCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok {
					continue
				}
				checkClosure(pass, lit)
			}
			return true
		})
	}
	return nil
}

// checkGlobalSinks reports package-level variables of a guarded trace type.
// A package-global sink is shared by construction — every run and every par
// worker would emit into it — so it can never satisfy the per-run contract.
func checkGlobalSinks(pass *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				v, ok := pass.TypesInfo.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				switch {
				case isTraceType(v.Type()):
					pass.Reportf(name.Pos(), "package-level trace sink %s %q: sinks are per-run state threaded through the run's job/config, never package globals (determinism contract, see docs/TRACING.md)",
						sharedTypeName(v.Type()), name.Name)
				case isMetricsType(v.Type()):
					pass.Reportf(name.Pos(), "package-level metrics registry %s %q: registries are per-run state attached through Options.Metrics, never package globals (determinism contract, see docs/METRICS.md)",
						sharedTypeName(v.Type()), name.Name)
				}
			}
		}
	}
}

// isParCall reports whether call invokes one of internal/par's fan-out
// functions or Pipe methods.
func isParCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !parFuncs[sel.Sel.Name] {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return pathMatches(fn.Pkg().Path(), "internal/par")
}

// checkClosure reports every use inside lit of a guarded-typed variable
// declared outside it.
func checkClosure(pass *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Declared inside the closure (parameter or local) is fine;
		// only captures of enclosing state are per-job leaks.
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		if name := sharedTypeName(v.Type()); name != "" {
			hint := "sim.NewRNG(sim.StreamSeed(seed, uint64(i)))"
			switch {
			case isTraceType(v.Type()):
				hint = "trace.NewSink(trace.NewCounters(), nil), merged in index order after the join"
			case isMetricsType(v.Type()):
				hint = "metrics.NewRegistry(), merged in index order after the join"
			case isFaultType(v.Type()):
				hint = "fault.NewInjector(plan, sim.StreamSeed(seed, fault.StreamCluster))"
			case isFleetType(v.Type()):
				hint = "decide placement sequentially before the fan-out and pass immutable launch specs into the closure"
			case isObsType(v.Type()):
				hint = "build a job-local trace.NewEvents ring inside the closure and merge it into the timeline/log in launch order on the scheduler's goroutine"
			case isSchedType(v.Type()):
				hint = "derive the policy from the job's kernel inside the closure and seed its state per run: k.Sched().NewState(sim.StreamSeed(seed, sched.StreamState))"
			}
			pass.Reportf(id.Pos(), "par closure captures %s %q from an enclosing scope: per-job state must be derived inside the job — %s — or worker scheduling leaks into the results (determinism contract, see docs/LINTING.md)",
				name, id.Name, hint)
		}
		return true
	})
}

// guardedNamed resolves t (or its pointee) to a guarded named type,
// returning the type, its group index, and whether t was a pointer.
func guardedNamed(t types.Type) (named *types.Named, group int, ptr bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
		ptr = true
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return nil, -1, false
	}
	for gi, g := range sharedTypeGroups {
		if g.names[n.Obj().Name()] && pathMatches(n.Obj().Pkg().Path(), g.pkg) {
			return n, gi, ptr
		}
	}
	return nil, -1, false
}

// sharedTypeName returns the display name ("*sim.RNG", "*trace.Sink") if t
// is — or points to — one of the guarded types, else "".
func sharedTypeName(t types.Type) string {
	named, gi, ptr := guardedNamed(t)
	if named == nil {
		return ""
	}
	prefix := ""
	if ptr {
		prefix = "*"
	}
	return prefix + sharedTypeGroups[gi].disp + "." + named.Obj().Name()
}

// isTraceType reports whether t is — or points to — a guarded
// internal/trace type.
func isTraceType(t types.Type) bool {
	_, gi, _ := guardedNamed(t)
	return gi >= 0 && sharedTypeGroups[gi].pkg == "internal/trace"
}

// isMetricsType reports whether t is — or points to — a guarded
// internal/metrics type.
func isMetricsType(t types.Type) bool {
	_, gi, _ := guardedNamed(t)
	return gi >= 0 && sharedTypeGroups[gi].pkg == "internal/metrics"
}

// isFaultType reports whether t is — or points to — a guarded
// internal/fault type.
func isFaultType(t types.Type) bool {
	_, gi, _ := guardedNamed(t)
	return gi >= 0 && sharedTypeGroups[gi].pkg == "internal/fault"
}

// isFleetType reports whether t is — or points to — a guarded
// internal/fleet type.
func isFleetType(t types.Type) bool {
	_, gi, _ := guardedNamed(t)
	return gi >= 0 && sharedTypeGroups[gi].pkg == "internal/fleet"
}

// isObsType reports whether t is — or points to — a guarded internal/obs
// type.
func isObsType(t types.Type) bool {
	_, gi, _ := guardedNamed(t)
	return gi >= 0 && sharedTypeGroups[gi].pkg == "internal/obs"
}

// isSchedType reports whether t is — or points to — a guarded
// internal/sched type.
func isSchedType(t types.Type) bool {
	_, gi, _ := guardedNamed(t)
	return gi >= 0 && sharedTypeGroups[gi].pkg == "internal/sched"
}
