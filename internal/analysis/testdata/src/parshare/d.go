// Fixture for the parshare fault rule: a fault.Injector owns its run's
// fault RNG stream, so capturing one across a par closure makes every
// job's fault draws depend on worker scheduling and must be flagged;
// building the injector inside the job from a stream seed must not.
package parshare

import (
	"mklite/internal/fault"
	"mklite/internal/par"
	"mklite/internal/sim"
)

func badSharedInjector(plan *fault.Plan, seed uint64) []int {
	inj := fault.NewInjector(plan, sim.StreamSeed(seed, fault.StreamCluster))
	out, _ := par.MapWidthErr(0, 8, func(i int) (int, error) {
		n, _ := inj.OffloadStalls(100) // want `par closure captures \*fault\.Injector "inj" from an enclosing scope`
		return n, nil
	})
	return out
}

func badSharedInjectorValue(plan *fault.Plan) []bool {
	var inj fault.Injector
	_ = inj
	out, _ := par.MapWidthErr(0, 4, func(i int) (bool, error) {
		r := &inj // want `par closure captures fault\.Injector "inj" from an enclosing scope`
		return r.Active(), nil
	})
	return out
}

func goodPerJobInjector(plan *fault.Plan, seed uint64) []int {
	out, _ := par.MapWidthErr(0, 8, func(i int) (int, error) {
		inj := fault.NewInjector(plan, sim.StreamSeed(sim.StreamSeed(seed, uint64(i)), fault.StreamCluster))
		n, _ := inj.OffloadStalls(100)
		return n, nil
	})
	return out
}

func goodSharedPlan(plan *fault.Plan) []bool {
	// The Plan is immutable declarative data; only the Injector carries
	// per-run draw state.
	out, _ := par.MapWidthErr(0, 8, func(i int) (bool, error) {
		return !plan.Empty(), nil
	})
	return out
}

func goodInjectorOutsideClosure(plan *fault.Plan, seed uint64) bool {
	inj := fault.NewInjector(plan, sim.StreamSeed(seed, fault.StreamNode))
	return inj.Active()
}
