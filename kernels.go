package mklite

import (
	"strings"

	"mklite/internal/cluster"
	"mklite/internal/kernel"
	"mklite/internal/metrics"
	"mklite/internal/nodesim"
	"mklite/internal/noise"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// KernelInfo summarises one kernel model's behaviour surface.
type KernelInfo struct {
	Name string
	// NativeSyscalls / OffloadedSyscalls / UnsupportedSyscalls count the
	// disposition table.
	NativeSyscalls      int
	OffloadedSyscalls   int
	UnsupportedSyscalls int
	// NoiseRate is the expected stolen-time fraction on an application
	// core.
	NoiseRate float64
	// Sched names the scheduling policy of application cores.
	Sched string
	// Preemptive reports tick-driven time sharing on application cores.
	Preemptive bool
	// OSCores and AppCores report the node partition.
	OSCores, AppCores int
}

// Describe returns the behaviour summary of a kernel. No command calls
// it: it is the facade's one way for a library user to read a kernel's
// syscall dispositions, noise rate, scheduling policy and node partition
// without the internal packages, which a module outside mklite cannot
// import, and README lists it with Run, Compare, MeasureNoise and
// SimulateNode as the public API.
func Describe(k Kernel) (KernelInfo, error) {
	kt, err := k.internalType()
	if err != nil {
		return KernelInfo{}, err
	}
	kern, err := cluster.BootDefault(kt)
	if err != nil {
		return KernelInfo{}, err
	}
	return KernelInfo{
		Name:                kern.Name(),
		NativeSyscalls:      kern.Table().Count(kernel.Native),
		OffloadedSyscalls:   kern.Table().Count(kernel.Offloaded),
		UnsupportedSyscalls: kern.Table().Count(kernel.Unsupported),
		NoiseRate:           kern.Noise().ExpectedRate(1),
		Sched:               string(kern.Sched().Kind()),
		Preemptive:          kern.Sched().Preemptive(),
		OSCores:             len(kern.Partition().OSCores),
		AppCores:            len(kern.Partition().AppCores),
	}, nil
}

// NoiseSample holds an FWQ measurement of one kernel's application cores:
// the FWQ and FTQ statistics, the per-source attribution and the detour
// distribution, all of one run.
type NoiseSample struct {
	Kernel Kernel
	// NoisePercent is the FWQ metric: mean slowdown over the minimum
	// iteration, in percent.
	NoisePercent float64
	// MaxStretchPercent is the worst single iteration's slowdown.
	MaxStretchPercent float64
	// MeanUtilization and WorstWindow are the FTQ (fixed time quanta)
	// view of the same detours: the mean and the smallest fraction of a
	// 1 ms window left to the application (1.0 = noiseless).
	MeanUtilization float64
	WorstWindow     float64
	// Sources attributes the run's total detour to the noise sources that
	// caused it (timer ticks, daemons, kworkers, ...): source name to
	// stolen seconds. The attribution rides the trace counters.
	Sources map[string]float64
	// Detours counts the detoured iterations; the percentiles and MaxNs
	// describe their detours (ns) through the metrics histogram path.
	Detours                     int64
	P50Ns, P90Ns, P99Ns, P999Ns float64
	MaxNs                       int64
	// Samples are the iteration times in microseconds.
	Samples []float64
}

// TailRatio returns p99.9 over p50 of the detours (0 when the median is
// 0): the paper's noise fingerprint. Linux's daemon tail pushes it past
// 10x while the LWKs' residual housekeeping keeps it small.
func (s NoiseSample) TailRatio() float64 {
	if s.P50Ns == 0 {
		return 0
	}
	return s.P999Ns / s.P50Ns
}

// noiseProfiles maps each kernel to the constructor of its application-core
// noise profile.
var noiseProfiles = map[Kernel]func() *noise.Profile{
	Linux:    noise.LinuxTuned,
	McKernel: noise.McKernelProfile,
	MOS:      noise.MOSProfile,
}

// MeasureNoise runs the FWQ microbenchmark (1 ms quanta) once on each
// kernel's noise profile, every kernel drawing from sim.NewRNG(seed), with
// a sink whose counters and metrics registry only observe. A non-positive
// iteration count means 5,000.
func MeasureNoise(seed uint64, iterations int) []NoiseSample {
	if iterations <= 0 {
		iterations = 5000
	}
	var out []NoiseSample
	for _, k := range Kernels() {
		ctrs, reg := trace.NewCounters(), metrics.NewRegistry()
		r := noise.RunFWQ(sim.NewRNG(seed), noiseProfiles[k](), 1, sim.Millisecond, iterations,
			trace.NewSinkObs(ctrs, nil, reg))
		u := r.Utilization()
		h := reg.Histogram("fwq.detour_ns")
		s := NoiseSample{
			Kernel:            k,
			NoisePercent:      r.NoisePercent(),
			MaxStretchPercent: r.MaxStretchPercent(),
			MeanUtilization:   u.Mean,
			WorstWindow:       u.Min,
			Sources:           map[string]float64{},
			Detours:           h.Count(),
			P50Ns:             h.Percentile(50),
			P90Ns:             h.Percentile(90),
			P99Ns:             h.Percentile(99),
			P999Ns:            h.Percentile(99.9),
			MaxNs:             h.Max(),
			Samples:           r.Samples,
		}
		for _, name := range ctrs.Names() {
			if src, ok := strings.CutPrefix(name, "noise.src."); ok {
				s.Sources[strings.TrimSuffix(src, "_ns")] = sim.Duration(ctrs.Get(name)).Seconds()
			}
		}
		out = append(out, s)
	}
	return out
}

// NodeSimConfig configures a discrete-event single-node simulation (see
// internal/nodesim): every rank is a process on its own core, noise
// stretches compute, offloaded syscalls queue on the OS cores, and an
// optional per-step barrier couples the ranks.
type NodeSimConfig struct {
	Ranks              int
	Steps              int
	ComputePerStepSecs float64
	SyscallsPerStep    int
	SyscallServiceSecs float64
	Barrier            bool
	Seed               uint64
	// TraceQueueDepth records the offload queue-depth timeline into
	// NodeSimResult.QueueDepth. Purely observational: the simulated
	// outcome is identical with or without it.
	TraceQueueDepth bool
}

// CounterSample is one point of a virtual-time counter timeline.
type CounterSample struct {
	TimeSeconds float64
	Value       int64
}

// NodeSimResult is the node simulation outcome.
type NodeSimResult struct {
	Kernel         string
	ElapsedSeconds float64
	// AnalyticSeconds is the run's compute, syscall and offload cost in
	// closed form, without noise, queueing or barriers.
	AnalyticSeconds      float64
	OffloadsServiced     int
	MaxOffloadLatencySec float64
	NoiseTotalSeconds    float64
	// QueueDepth is the offload queue-depth timeline (one sample per
	// enqueue/dequeue) when TraceQueueDepth was set: the burst-and-drain
	// shape the analytic model folds away.
	QueueDepth []CounterSample
}

// SimulateNode runs the discrete-event node model on the given kernel —
// the event-by-event counterpart of the analytic cluster harness, exposing
// offload queueing and barrier coupling directly.
func SimulateNode(k Kernel, cfg NodeSimConfig) (NodeSimResult, error) {
	kt, err := k.internalType()
	if err != nil {
		return NodeSimResult{}, err
	}
	kern, err := cluster.BootDefault(kt)
	if err != nil {
		return NodeSimResult{}, err
	}
	nc := nodesim.Config{
		Kern:            kern,
		Ranks:           cfg.Ranks,
		Steps:           cfg.Steps,
		ComputePerStep:  sim.DurationOf(cfg.ComputePerStepSecs),
		SyscallsPerStep: cfg.SyscallsPerStep,
		SyscallService:  sim.DurationOf(cfg.SyscallServiceSecs),
		Barrier:         cfg.Barrier,
		Seed:            cfg.Seed,
	}
	var evs *trace.Events
	if cfg.TraceQueueDepth {
		evs = trace.NewEvents(0)
		nc.Sink = trace.NewSink(nil, evs)
	}
	res, err := nodesim.Run(nc)
	if err != nil {
		return NodeSimResult{}, err
	}
	out := NodeSimResult{
		Kernel:               kern.Name(),
		ElapsedSeconds:       res.Elapsed.Seconds(),
		AnalyticSeconds:      nodesim.AnalyticEstimate(nc).Seconds(),
		OffloadsServiced:     res.OffloadsServiced,
		MaxOffloadLatencySec: res.MaxOffloadLatency.Seconds(),
		NoiseTotalSeconds:    res.NoiseTotal.Seconds(),
	}
	if evs != nil {
		for _, s := range evs.CounterSeries("offload.queue_depth") {
			out.QueueDepth = append(out.QueueDepth, CounterSample{
				TimeSeconds: sim.Duration(s.TS).Seconds(),
				Value:       s.Value,
			})
		}
	}
	return out, nil
}
