package mklite

import (
	"fmt"
	"strings"

	"mklite/internal/cluster"
	"mklite/internal/kernel"
	"mklite/internal/metrics"
	"mklite/internal/nodesim"
	"mklite/internal/noise"
	"mklite/internal/sim"
	"mklite/internal/stats"
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

// Describe returns the behaviour summary of a kernel.
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

// NoiseSample holds an FWQ measurement of one kernel's application cores.
type NoiseSample struct {
	Kernel Kernel
	// NoisePercent is the FWQ metric: mean slowdown over the minimum
	// iteration, in percent.
	NoisePercent float64
	// MaxStretchPercent is the worst single iteration's slowdown.
	MaxStretchPercent float64
}

// noiseProfiles maps each kernel to the constructor of its application-core
// noise profile.
var noiseProfiles = map[Kernel]func() *noise.Profile{
	Linux:    noise.LinuxTuned,
	McKernel: noise.McKernelProfile,
	MOS:      noise.MOSProfile,
}

// fwqIterations defaults a non-positive FWQ/FTQ iteration count to 5,000.
func fwqIterations(n int) int {
	if n <= 0 {
		return 5000
	}
	return n
}

// MeasureNoise runs the FWQ microbenchmark (1 ms quanta) on each kernel's
// noise profile.
func MeasureNoise(seed uint64, iterations int) []NoiseSample {
	iterations = fwqIterations(iterations)
	rng := sim.NewRNG(seed)
	var out []NoiseSample
	for _, k := range Kernels() {
		r := noise.RunFWQ(rng.Split(), noiseProfiles[k](), 1, sim.Millisecond, iterations)
		out = append(out, NoiseSample{
			Kernel:            k,
			NoisePercent:      r.NoisePercent(),
			MaxStretchPercent: r.MaxStretchPercent(),
		})
	}
	return out
}

// NoiseSourceBreakdown attributes an FWQ run's total detour to the noise
// sources that caused it (timer ticks, daemons, kworkers, ...): source name
// to stolen seconds over the whole run. The attribution rides the trace
// subsystem's counters, so the sampling sequence — and therefore every
// NoiseSample metric — is identical to MeasureNoise at the same seed.
func NoiseSourceBreakdown(k Kernel, seed uint64, iterations int) (map[string]float64, error) {
	iterations = fwqIterations(iterations)
	newProfile, ok := noiseProfiles[k]
	if !ok {
		return nil, fmt.Errorf("mklite: unknown kernel %q", string(k))
	}
	ctrs := trace.NewCounters()
	noise.RunFWQTo(sim.NewRNG(seed), newProfile(), 1, sim.Millisecond, iterations, trace.NewSink(ctrs, nil))
	out := map[string]float64{}
	for _, name := range ctrs.Names() {
		src, ok := strings.CutPrefix(name, "noise.src.")
		if !ok {
			continue
		}
		src = strings.TrimSuffix(src, "_ns")
		out[src] = sim.Duration(ctrs.Get(name)).Seconds()
	}
	return out, nil
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
	Kernel               string
	ElapsedSeconds       float64
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

// UtilizationSample holds an FTQ (fixed time quanta) measurement: the
// fraction of each fixed window available to the application.
type UtilizationSample struct {
	Kernel Kernel
	// MeanUtilization is the average fraction of the window spent on
	// application work (1.0 = noiseless).
	MeanUtilization float64
	// WorstWindow is the minimum utilisation observed.
	WorstWindow float64
}

// MeasureUtilization runs the FTQ microbenchmark (1 ms windows) on each
// kernel's noise profile.
func MeasureUtilization(seed uint64, iterations int) []UtilizationSample {
	iterations = fwqIterations(iterations)
	rng := sim.NewRNG(seed)
	var out []UtilizationSample
	for _, k := range Kernels() {
		r := noise.RunFTQ(rng.Split(), noiseProfiles[k](), 1, sim.Millisecond, iterations)
		s := r.Summary()
		out = append(out, UtilizationSample{
			Kernel:          k,
			MeanUtilization: s.Mean,
			WorstWindow:     s.Min,
		})
	}
	return out
}

// NoiseDistribution is one kernel's FWQ detour distribution measured
// through the metrics histogram path: every positive per-iteration detour
// recorded into a log-bucketed histogram, with the headline percentiles in
// nanoseconds. TailRatio (p99.9 over p50) is the paper's noise
// fingerprint: Linux's daemon tail pushes it past 10x while the LWKs'
// residual housekeeping keeps it near 1.
type NoiseDistribution struct {
	Kernel   Kernel
	Count    int64
	MinNs    int64
	MaxNs    int64
	P50Ns    float64
	P90Ns    float64
	P99Ns    float64
	P999Ns   float64
	MeanNs   float64
	Rendered string // the mkobs report table for this kernel's registry
}

// TailRatio returns p99.9 over p50 (0 when the median is 0).
func (d NoiseDistribution) TailRatio() float64 {
	if d.P50Ns == 0 {
		return 0
	}
	return d.P999Ns / d.P50Ns
}

// MeasureNoiseDistributions runs the FWQ microbenchmark on each kernel's
// noise profile with a metrics registry attached and returns the detour
// distributions. The sampling sequence is identical to MeasureNoise at the
// same seed and iteration count — the registry only observes.
func MeasureNoiseDistributions(seed uint64, quantumSecs float64, iterations int) []NoiseDistribution {
	iterations = fwqIterations(iterations)
	quantum := sim.DurationOf(quantumSecs)
	if quantum <= 0 {
		quantum = sim.Millisecond
	}
	var out []NoiseDistribution
	for _, k := range Kernels() {
		reg := metrics.NewRegistry()
		noise.RunFWQTo(sim.NewRNG(seed), noiseProfiles[k](), 1, quantum, iterations,
			trace.NewSinkObs(nil, nil, reg))
		h := reg.Histogram("fwq.detour_ns")
		out = append(out, NoiseDistribution{
			Kernel:   k,
			Count:    h.Count(),
			MinNs:    h.Min(),
			MaxNs:    h.Max(),
			P50Ns:    h.Percentile(50),
			P90Ns:    h.Percentile(90),
			P99Ns:    h.Percentile(99),
			P999Ns:   h.Percentile(99.9),
			MeanNs:   h.Mean(),
			Rendered: reg.Report().Render(),
		})
	}
	return out
}

// NoiseSamplesMicros returns the raw FWQ iteration times (microseconds)
// for one kernel — the distribution behind MeasureNoise, for histogramming.
func NoiseSamplesMicros(k Kernel, seed uint64, iterations int) ([]float64, error) {
	iterations = fwqIterations(iterations)
	newProfile, ok := noiseProfiles[k]
	if !ok {
		return nil, fmt.Errorf("mklite: unknown kernel %q", string(k))
	}
	r := noise.RunFWQ(sim.NewRNG(seed), newProfile(), 1, sim.Millisecond, iterations)
	return r.Samples, nil
}

// RenderHistogram bins values into buckets and renders a text histogram.
func RenderHistogram(values []float64, buckets int, unit string) string {
	return stats.NewHistogram(values, buckets).Render(unit)
}
