package experiments

import (
	"fmt"
	"maps"
	"slices"

	"mklite/internal/hw"
	"mklite/internal/ihk"
	"mklite/internal/kernel"
	"mklite/internal/linuxos"
	"mklite/internal/noise"
	"mklite/internal/sched"
	"mklite/internal/sim"
	"mklite/internal/stats"
)

// AblationResults quantifies the design-space claims of section II that the
// scaling figures build on: per-kernel noise signatures (FWQ), the cost gap
// between proxy offload and thread-migration offload, and the scheduler
// policy overheads.
type AblationResults struct {
	// FWQNoisePercent is the FWQ noise metric per kernel profile.
	FWQNoisePercent map[string]float64
	// OffloadRoundTrip is the measured cost of one offloaded syscall.
	OffloadRoundTrip map[string]sim.Duration
	// SchedulerMakespan compares cooperative vs time-shared scheduling
	// of an 8-task batch.
	SchedulerMakespan map[string]sim.Duration
	// IKCQueueingTail is the worst offload latency when all 64 LWK
	// cores offload into a single proxy at once.
	IKCQueueingTail sim.Duration
}

// Ablations runs the microbenchmark suite.
func Ablations(cfg Config) (AblationResults, error) {
	cfg = cfg.normalize()
	rng := sim.NewRNG(cfg.Seed)
	res := AblationResults{
		FWQNoisePercent:   map[string]float64{},
		OffloadRoundTrip:  map[string]sim.Duration{},
		SchedulerMakespan: map[string]sim.Duration{},
	}

	// FWQ: fixed work quanta on one application core per profile. Each
	// profile takes the next split of rng, so they are visited in sorted
	// name order: map order would hand them different streams per call.
	profiles := map[string]*noise.Profile{
		"linux-tuned":   noise.LinuxTuned(),
		"linux-untuned": noise.LinuxUntuned(),
		"mckernel":      noise.McKernelProfile(),
		"mos":           noise.MOSProfile(),
	}
	for _, name := range slices.Sorted(maps.Keys(profiles)) {
		fwq := noise.RunFWQ(rng.Split(), profiles[name], 1, sim.Millisecond, 5000, nil)
		res.FWQNoisePercent[name] = fwq.NoisePercent()
	}

	// Offload cost per design (one open() syscall).
	res.OffloadRoundTrip["linux-native"] = kernel.LinuxCosts().SyscallTime(kernel.Native)
	res.OffloadRoundTrip["mckernel-proxy"] = kernel.McKernelCosts().SyscallTime(kernel.Offloaded)
	res.OffloadRoundTrip["mos-migration"] = kernel.MOSCosts().SyscallTime(kernel.Offloaded)

	// Scheduler policies on an 8-task batch of 50 ms tasks: McKernel's
	// cooperative run-to-completion against Linux time sharing with a
	// 10 ms quantum and a 4 ms tick.
	tasks := make([]sim.Duration, 8)
	for i := range tasks {
		tasks[i] = 50 * sim.Millisecond
	}
	res.SchedulerMakespan["cooperative-lwk"] = sched.Run(tasks, sched.Coop,
		sched.Params{ContextSwitch: kernel.McKernelCosts().ContextSwitch}, 0).Makespan
	linCosts := kernel.LinuxCosts()
	res.SchedulerMakespan["time-shared-linux"] = sched.Run(tasks, sched.CFS, sched.Params{
		Quantum:       10 * sim.Millisecond,
		ContextSwitch: linCosts.ContextSwitch,
		TickPeriod:    4 * sim.Millisecond,
		TickOverhead:  linCosts.TickOverhead,
	}, 0).Makespan

	// IKC queueing: all 64 LWK cores offload simultaneously into one
	// proxy worker.
	lin, err := linuxos.Boot(hw.KNL7250SNC4(), linuxos.DefaultConfig())
	if err != nil {
		return res, err
	}
	eng := sim.NewEngine(cfg.Seed)
	srv := ihk.NewOffloadServer(eng, ihk.NewIKC(lin.Partition()), 1)
	var worst sim.Duration
	for core := 4; core < 68; core++ {
		core := core
		eng.Spawn("offloader", func(p *sim.Proc) {
			start := p.Now()
			if err := srv.Offload(p, core, 2*sim.Microsecond); err != nil {
				return
			}
			if d := sim.Duration(p.Now() - start); d > worst {
				worst = d
			}
		})
	}
	eng.RunUntil(sim.Time(sim.Second))
	// The offload server's worker process is still parked on its queue;
	// unwind it so no goroutine outlives the call.
	eng.Drain()
	res.IKCQueueingTail = worst
	return res, nil
}

// RenderAblations formats the ablation results.
func RenderAblations(a AblationResults) string {
	tb := stats.NewTable("ablation", "value")
	for _, k := range []string{"mckernel", "mos", "linux-tuned", "linux-untuned"} {
		tb.AddRow("FWQ noise "+k, fmt.Sprintf("%.4f%%", a.FWQNoisePercent[k]))
	}
	for _, k := range []string{"linux-native", "mos-migration", "mckernel-proxy"} {
		tb.AddRow("syscall cost "+k, a.OffloadRoundTrip[k].String())
	}
	tb.AddRow("sched makespan cooperative-lwk", a.SchedulerMakespan["cooperative-lwk"].String())
	tb.AddRow("sched makespan time-shared-linux", a.SchedulerMakespan["time-shared-linux"].String())
	tb.AddRow("IKC queueing tail (64 cores, 1 proxy)", a.IKCQueueingTail.String())
	return tb.Render()
}
