// Fixture for the parshare fleet rule: a fleet.Scheduler or fleet.Allocator
// is one facility run's mutable queue/occupancy state, so capturing either
// across a par closure makes node placement — and every co-tenancy
// interference plan derived from it — depend on worker scheduling and must
// be flagged; passing immutable launch specs into the closure must not.
package parshare

import (
	"mklite/internal/fleet"
	"mklite/internal/par"
)

func badSharedAllocator() []bool {
	alloc := fleet.NewAllocator(64, 1)
	out, _ := par.MapWidthErr(0, 8, func(i int) (bool, error) {
		return alloc.Fits(4), nil // want `par closure captures \*fleet\.Allocator "alloc" from an enclosing scope`
	})
	return out
}

func badSharedScheduler() []int {
	var sched fleet.Scheduler
	_ = sched
	out, _ := par.MapWidthErr(0, 4, func(i int) (int, error) {
		s := &sched // want `par closure captures fleet\.Scheduler "sched" from an enclosing scope`
		_ = s
		return i, nil
	})
	return out
}

func goodImmutableLaunchSpecs(jobs []*fleet.Job) []int {
	// Placement decided sequentially before the fan-out; the closure sees
	// only the immutable per-job specs.
	out, _ := par.MapWidthErr(0, len(jobs), func(i int) (int, error) {
		return jobs[i].Nodes * jobs[i].Timesteps, nil
	})
	return out
}

func goodAllocatorOutsideClosure() bool {
	alloc := fleet.NewAllocator(8, 2)
	return alloc.Fits(3)
}
