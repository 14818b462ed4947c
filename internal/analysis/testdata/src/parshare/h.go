// Fixture for the parshare rule on par.Pipe.Submit: a pipeline job runs on
// a worker while the submitting loop keeps mutating its own state, so a
// submitted closure that captures the facility scheduler, its allocator or
// an outer RNG must be flagged exactly like a par.MapWidthErr closure;
// capturing an immutable launch spec must not.
package parshare

import (
	"mklite/internal/fleet"
	"mklite/internal/par"
	"mklite/internal/sim"
)

// launch mirrors the facility's immutable per-job launch spec.
type launch struct {
	job   *fleet.Job
	nodes []int
	seed  uint64
}

func badSubmitScheduler(p *par.Pipe[int], s *fleet.Scheduler) *par.Future[int] {
	return p.Submit(func() (int, error) {
		_ = s // want `par closure captures \*fleet\.Scheduler "s" from an enclosing scope`
		return 0, nil
	})
}

func badSubmitAllocator(p *par.Pipe[bool]) *par.Future[bool] {
	alloc := fleet.NewAllocator(16, 2)
	return p.Submit(func() (bool, error) {
		return alloc.Fits(4), nil // want `par closure captures \*fleet\.Allocator "alloc" from an enclosing scope`
	})
}

func badSubmitRNG(p *par.Pipe[float64], seed uint64) *par.Future[float64] {
	rng := sim.NewRNG(seed)
	return p.Submit(func() (float64, error) {
		return rng.Float64(), nil // want `par closure captures \*sim\.RNG "rng" from an enclosing scope`
	})
}

func goodSubmitLaunchSpec(p *par.Pipe[float64], l *launch) *par.Future[float64] {
	return p.Submit(func() (float64, error) {
		rng := sim.NewRNG(sim.StreamSeed(l.seed, uint64(l.job.ID)))
		return rng.Float64() * float64(len(l.nodes)), nil
	})
}
