package analysis

import (
	"go/ast"
)

// goroutineAllowedPackages are the packages exempt from the bare-goroutine
// ban. internal/par is the module's one sanctioned concurrency primitive:
// its bounded worker pool collects results in index order, confines panics,
// and is covered by the seed-isolation rules the parshare analyzer
// enforces at every call site. Everything else — model code, experiment
// generators, commands — must fan out through it. (sim.Proc, the
// cooperative abstraction itself, needs no go statement: its bodies run as
// iter.Pull coroutines.)
var goroutineAllowedPackages = []string{
	"internal/par",
}

// simOnlyPackages are the simulation-model packages, where the diagnostic
// points at the cooperative sim.Proc API instead of par: inside the model
// the engine promises exactly one runnable goroutine at any moment, so not
// even par's index-ordered pool is admissible.
var simOnlyPackages = []string{
	"internal/sim",
	"internal/kernel",
	"internal/cluster",
}

// NoGoroutine forbids bare go statements everywhere in the module except
// internal/par, the sanctioned worker-pool fan-out.
var NoGoroutine = &Analyzer{
	Name: "nogoroutine",
	Doc: "forbid bare go statements outside internal/par; fan independent " +
		"jobs out through par.MapWidthErr, and inside the simulation model use the " +
		"cooperative sim.Proc abstraction",
	AppliesTo: func(importPath string) bool {
		return !pathInAny(importPath, goroutineAllowedPackages)
	},
	Run: runNoGoroutine,
}

func runNoGoroutine(pass *Pass) error {
	inModel := pathInAny(pass.Pkg.Path(), simOnlyPackages)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if inModel {
				pass.Reportf(gs.Pos(), "bare go statement in simulation-model package %s: the engine requires exactly one runnable goroutine; use sim.Engine.Spawn and the cooperative sim.Proc API (determinism contract, see docs/LINTING.md)",
					pass.Pkg.Path())
			} else {
				pass.Reportf(gs.Pos(), "bare go statement in %s: internal/par is the module's one sanctioned goroutine spawner; fan independent jobs out through par.MapWidthErr (determinism contract, see docs/LINTING.md)",
					pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
