package cluster

import (
	"slices"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/sched"
	"mklite/internal/sim"
)

// TestMinResidentSound checks the lower bound the facility's lookahead
// pipeline relies on against real runs: every registry application on all
// three kernels under every scheduling policy and every fault-plan shape
// that changes a run's length — storms with offload contention,
// stragglers, link loss, node failures with retries, and node failures
// ending in degraded completion on fewer nodes. Setup + Elapsed must never
// fall below MinResident; the median tightness (bound / actual) is logged
// so a bound that degenerates towards zero is visible.
func TestMinResidentSound(t *testing.T) {
	plans := []struct {
		name     string
		plan     *fault.Plan
		degraded bool
	}{
		{"none", nil, false},
		{"storm+offload", &fault.Plan{
			Storm:   &fault.DaemonStorm{Period: 2 * sim.Millisecond, Burst: 150 * sim.Microsecond, CV: 0.5, OffloadFactor: 3},
			Offload: &fault.OffloadFault{StallProb: 0.01, Stall: 200 * sim.Microsecond},
		}, false},
		{"straggler", &fault.Plan{Stragglers: []fault.Straggler{
			{Node: 1, Factor: 1.5, Extra: 50 * sim.Microsecond, StartStep: 2, Steps: 10},
		}}, false},
		{"link-loss", &fault.Plan{Link: &fault.LinkFault{LossProb: 0.01, Timeout: sim.Millisecond}}, false},
		{"nodefail+retry", &fault.Plan{
			NodeFail: &fault.NodeFailure{FailFirst: 2},
			Retry:    fault.RetryPolicy{MaxRetries: 3, Base: sim.Millisecond},
		}, false},
		{"nodefail+degraded", &fault.Plan{
			NodeFail:      &fault.NodeFailure{FailFirst: 5},
			Retry:         fault.RetryPolicy{MaxRetries: 1, Base: sim.Millisecond},
			AllowDegraded: true,
		}, true},
	}
	kernels := []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS}
	for _, pl := range plans {
		var ratios []float64
		for ai, app := range apps.All() {
			nodes := 0
			for _, n := range app.NodeCounts {
				if n >= 2 {
					nodes = n
					break
				}
			}
			for _, kt := range kernels {
				for ki, kind := range sched.Kinds() {
					j := Job{App: app, Kernel: kt, Sched: kind, Nodes: nodes,
						Seed: sim.StreamSeed(uint64(ai), uint64(ki)), Faults: pl.plan}
					res := run(t, j)
					if res.Degraded != pl.degraded {
						t.Fatalf("%s: %s on %v/%s: Degraded = %v", pl.name, app.Name, kt, kind, res.Degraded)
					}
					bound, got := MinResident(j), res.Setup+res.Elapsed
					if bound <= 0 || got < bound {
						t.Fatalf("%s: %s on %v/%s at %d nodes: Setup+Elapsed %v below MinResident %v",
							pl.name, app.Name, kt, kind, nodes, got, bound)
					}
					ratios = append(ratios, float64(bound)/float64(got))
				}
			}
		}
		slices.Sort(ratios)
		t.Logf("%-18s %d runs, median tightness %.3f (min %.3f, max %.3f)",
			pl.name, len(ratios), ratios[len(ratios)/2], ratios[0], ratios[len(ratios)-1])
	}
}

// TestMinResidentDegenerate: a job that cannot run bounds at zero instead
// of dividing by a missing compute model.
func TestMinResidentDegenerate(t *testing.T) {
	spec := *apps.MILC()
	spec.EffGFlops = 0
	for _, j := range []Job{{}, {App: apps.MILC()}, {App: &spec, Nodes: 4}} {
		if got := MinResident(j); got != 0 {
			t.Fatalf("MinResident(%+v) = %v, want 0", j, got)
		}
	}
}
