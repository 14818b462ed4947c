package experiments

// Fault-plan precedence: a job-level cluster.Job.Faults plan must win over
// the grid-level Config.Faults plan; the grid plan only fills in when the
// job carries none. prepare implements this with a nil check on its job
// copy, and docs/FAULTS.md documents the same rule — this test
// pins the behaviour through the exact straggler accounting
// (fault.straggler_ns == Extra x Timesteps per repetition on MiniFE, which
// allreduces every step).

import (
	"context"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/cluster"
	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// measureCounters prepares job under cfg as a grid cell would and returns
// its repetitions' merged counters.
func measureCounters(t *testing.T, cfg Config, job cluster.Job) *trace.Counters {
	t.Helper()
	img, err := prepare(context.Background(), cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	_, ctrs, _, err := measureImage(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	return ctrs
}

func TestJobFaultsWinOverConfigFaults(t *testing.T) {
	const (
		jobExtra  = 2 * sim.Millisecond
		gridExtra = 7 * sim.Millisecond
	)
	app := apps.MiniFE()
	cfg := Config{
		Reps:     2,
		Seed:     1,
		Counters: true,
		Faults:   &fault.Plan{Stragglers: []fault.Straggler{{Node: 0, Extra: gridExtra}}},
	}
	base := cluster.Job{App: app, Kernel: kernel.TypeMcKernel, Nodes: 16}
	steps := int64(app.Timesteps)

	// Job-level plan set: the grid plan must be ignored entirely.
	withJobPlan := base
	withJobPlan.Faults = &fault.Plan{Stragglers: []fault.Straggler{{Node: 0, Extra: jobExtra}}}
	ctrs := measureCounters(t, cfg, withJobPlan)
	want := int64(jobExtra) * steps * int64(cfg.Reps)
	if got := ctrs.Get("fault.straggler_ns"); got != want {
		t.Errorf("job-level plan: fault.straggler_ns = %d, want %d (Extra %v x %d steps x %d reps); grid plan must not apply",
			got, want, jobExtra, steps, cfg.Reps)
	}

	// No job-level plan: the grid plan fills in.
	ctrs = measureCounters(t, cfg, base)
	want = int64(gridExtra) * steps * int64(cfg.Reps)
	if got := ctrs.Get("fault.straggler_ns"); got != want {
		t.Errorf("grid-level plan: fault.straggler_ns = %d, want %d (Extra %v x %d steps x %d reps)",
			got, want, gridExtra, steps, cfg.Reps)
	}
}
