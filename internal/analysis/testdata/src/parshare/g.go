// Fixture for the parshare sched rule: a *sched.State is one run's mutable
// scheduler state (the adaptive policy's EMA, live quantum and RNG stream
// all advance on every Step), and a sched.Policy handle's only job-side use
// is minting per-run State — so capturing either across a par closure
// makes quantum adaptation depend on worker order and must be flagged;
// deriving the policy and its state inside the closure must not.
package parshare

import (
	"mklite/internal/par"
	"mklite/internal/sched"
	"mklite/internal/sim"
)

func badSharedSchedState() []int {
	pol, _ := sched.New(sched.Adaptive, sched.Params{})
	st := pol.NewState(1)
	out, _ := par.MapWidthErr(0, 4, func(i int) (int, error) {
		cost := st.Step(sim.Duration(i)) // want `par closure captures \*sched\.State "st" from an enclosing scope`
		return int(cost.Overhead), nil
	})
	return out
}

func badSharedSchedPolicy() []int {
	pol, _ := sched.New(sched.Adaptive, sched.Params{})
	out, _ := par.MapWidthErr(0, 4, func(i int) (int, error) {
		st := pol.NewState(uint64(i)) // want `par closure captures sched\.Policy "pol" from an enclosing scope`
		return int(st.Step(sim.Duration(i)).Overhead), nil
	})
	return out
}

func goodJobLocalSchedState() []int {
	out, _ := par.MapWidthErr(0, 4, func(i int) (int, error) {
		// Policy and state both derived inside the job: no shared draws.
		pol, _ := sched.New(sched.Adaptive, sched.Params{})
		st := pol.NewState(sim.StreamSeed(1, uint64(i)))
		return int(st.Step(sim.Duration(i)).Overhead), nil
	})
	return out
}

func goodPolicyOutsideFanOut() sched.Kind {
	pol, _ := sched.New(sched.RR, sched.Params{})
	st := pol.NewState(1)
	st.Step(42)
	return pol.Kind()
}
