// Package mklite is a simulation framework for lightweight multi-kernel
// operating systems, reproducing Gerofi et al., "Performance and
// Scalability of Lightweight Multi-Kernel based Operating Systems"
// (IEEE IPDPS 2018).
//
// The library models the paper's full stack: Intel Xeon Phi "Knights
// Landing" nodes in SNC-4 flat mode (MCDRAM + DDR4), three kernel
// configurations — production Linux, IHK/McKernel (proxy-process syscall
// offloading) and mOS (thread-migration offloading) — an Omni-Path-like
// fabric whose host driver needs kernel involvement, a hierarchical MPI
// collective model, OS-noise generators, and phase-level workload models
// of the paper's eight evaluation applications. This package runs one
// application or one node model at a time; cmd/mkexperiments regenerates
// every table and figure of the evaluation section.
//
// Quick start:
//
//	res, err := mklite.Run("minife", mklite.McKernel, 1024, 1, nil)
//	fmt.Println(res.FOM, res.Unit)
//
// See the examples/ directory for complete programs.
package mklite

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"

	"mklite/internal/apps"
	"mklite/internal/cluster"
	"mklite/internal/fabric"
	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/mckernel"
	"mklite/internal/metrics"
	"mklite/internal/mos"
	"mklite/internal/sched"
	"mklite/internal/trace"
)

// Kernel selects one of the three modelled operating systems.
type Kernel string

// The three kernels of the paper's evaluation.
const (
	Linux    Kernel = "linux"
	McKernel Kernel = "mckernel"
	MOS      Kernel = "mos"
)

// Kernels returns all kernels in the paper's comparison order.
func Kernels() []Kernel { return []Kernel{Linux, McKernel, MOS} }

// ParseKernel converts a string (as used on command lines) to a Kernel.
func ParseKernel(s string) (Kernel, error) {
	switch Kernel(s) {
	case Linux, McKernel, MOS:
		return Kernel(s), nil
	}
	return "", fmt.Errorf("mklite: unknown kernel %q (want linux, mckernel or mos)", s)
}

func (k Kernel) internalType() (kernel.Type, error) {
	switch k {
	case Linux:
		return kernel.TypeLinux, nil
	case McKernel:
		return kernel.TypeMcKernel, nil
	case MOS:
		return kernel.TypeMOS, nil
	}
	return 0, fmt.Errorf("mklite: unknown kernel %q", string(k))
}

// Observe groups a run's observability attachments: the per-step trace,
// mechanism counters, the virtual-time event timeline and the metrics
// registry. All of them are purely observational — every simulated output
// is byte-identical with or without them attached.
type Observe struct {
	// Trace records a per-timestep breakdown into Result.StepTrace.
	Trace bool
	// Counters attaches a mechanism-counter sink to the run; the
	// aggregated counts land in Result.Counters.
	Counters bool
	// Events records the run's virtual-time event timeline (a ring of
	// trace.DefaultEventCap events); Result.TraceJSON holds the Chrome
	// trace-event export, which metrics.FoldedFromJSON folds into a
	// flame graph (mkobs flame).
	Events bool
	// Metrics attaches a metrics registry to the run: latency
	// histograms, per-rank distributions, per-phase virtual-time
	// accounting and gauges. Result.MetricsJSON holds the
	// mklite-metrics/v1 report and Result.MetricsText its rendered
	// tables.
	Metrics bool
}

// Options carries per-run tunables: the model configuration, the Observe
// block, and an optional fault plan.
type Options struct {
	// ForceDDROnly pins all application memory to DDR4 (the Table I
	// and CCS-QCD-DDR configurations).
	ForceDDROnly bool
	// MpolShmPremap enables McKernel's --mpol-shm-premap.
	MpolShmPremap bool
	// DisableSchedYield enables McKernel's --disable-sched-yield.
	DisableSchedYield bool
	// HPCHeap toggles the LWK heap optimisations (nil = kernel
	// default: enabled).
	HPCHeap *bool
	// UserSpaceFabric swaps the Omni-Path model for a fabric driven
	// entirely from user space (no syscalls on the message path).
	UserSpaceFabric bool
	// Quadrant runs the nodes in quadrant mode instead of SNC-4
	// (one DDR4 + one MCDRAM domain; numactl -p works, the SNC-4
	// mesh advantage is lost).
	Quadrant bool
	// Sched selects the scheduling policy of the booted kernel's
	// application cores: one of "cfs", "rr", "coop", "gang", "tickless",
	// "adaptive" (see docs/SCHED.md). Empty keeps each kernel's default —
	// cfs on Linux, coop on the LWKs — under which every output is
	// byte-identical to a build without the scheduler seam.
	Sched string

	// Observe groups the run's observability attachments.
	Observe Observe

	// Faults, when non-nil and non-empty, schedules deterministic fault
	// injection for the run — stragglers, offload stalls, link loss,
	// transient node failures, daemon storms — with job-level retry and
	// optional degraded completion (see docs/FAULTS.md). Faults draw
	// from their own seed-derived stream: a nil or empty plan leaves
	// every output byte-identical to a faultless build.
	Faults *fault.Plan
}

// observe returns the effective observability configuration.
func (o *Options) observe() Observe {
	if o == nil {
		return Observe{}
	}
	return o.Observe
}

// validate rejects malformed options with a proper error.
func (o *Options) validate() error {
	if o == nil {
		return nil
	}
	if o.Sched != "" {
		if _, err := sched.Parse(o.Sched); err != nil {
			return fmt.Errorf("mklite: %w", err)
		}
	}
	return o.Faults.Validate()
}

// StepTrace is one timestep's attribution, in seconds.
type StepTrace struct {
	Compute float64
	Memory  float64
	Heap    float64
	Syscall float64
	Sched   float64
	Comm    float64
	Noise   float64
}

// AppInfo describes one of the modelled applications.
type AppInfo struct {
	Name           string
	Desc           string
	Unit           string
	RanksPerNode   int
	ThreadsPerRank int
	Weak           bool
	NodeCounts     []int
}

// Apps lists the eight evaluation applications.
func Apps() []AppInfo {
	var out []AppInfo
	for _, s := range apps.All() {
		out = append(out, AppInfo{
			Name:           s.Name,
			Desc:           s.Desc,
			Unit:           s.Unit,
			RanksPerNode:   s.RanksPerNode,
			ThreadsPerRank: s.ThreadsPerRank,
			Weak:           s.Weak,
			NodeCounts:     append([]int(nil), s.NodeCounts...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AppNodeCounts returns the node counts an app is evaluated on.
func AppNodeCounts(appName string) ([]int, error) {
	s, err := apps.Get(appName)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), s.NodeCounts...), nil
}

// Result is one run's outcome.
type Result struct {
	App    string
	Kernel string
	Nodes  int
	Ranks  int

	// ElapsedSeconds is the timed (solve) phase duration.
	ElapsedSeconds float64
	// FOM is the application's figure of merit (a rate in Unit).
	FOM  float64
	Unit string

	// Breakdown attributes the elapsed time to mechanisms, in seconds:
	// keys are "compute", "memory", "heap", "syscall", "sched", "comm",
	// "noise", "shm-setup".
	Breakdown map[string]float64

	// Heap accounting of rank 0 (queries/grows/shrinks/peak bytes/
	// cumulative growth/faults).
	HeapQueries, HeapGrows, HeapShrinks int64
	HeapPeakBytes, HeapGrownBytes       int64
	HeapFaults                          int64

	// MCDRAMBytes is the node's MCDRAM residency after setup;
	// DemandRanks counts ranks that ended up demand paged.
	MCDRAMBytes int64
	DemandRanks int

	// StepTrace holds the per-timestep attribution when Options.Trace
	// was set.
	StepTrace []StepTrace

	// Retries counts failed attempts re-executed after injected
	// transient node failures; RecoverySeconds is the virtual time lost
	// to failed attempts and retry backoff (included in ElapsedSeconds).
	// Degraded reports completion on a reduced node set, with LostNodes
	// nodes dropped. All zero — and absent from JSON — without an active
	// fault plan.
	Retries         int     `json:"Retries,omitempty"`
	RecoverySeconds float64 `json:"RecoverySeconds,omitempty"`
	Degraded        bool    `json:"Degraded,omitempty"`
	LostNodes       int     `json:"LostNodes,omitempty"`

	// Counters holds the run's mechanism counters when Options.Counters
	// was set (sorted on export; see docs/TRACING.md for the key
	// namespace).
	Counters map[string]int64 `json:"Counters,omitempty"`
	// TraceJSON holds the Chrome trace-event export when Options.Events
	// was set. Excluded from JSON marshalling — it is a document of its
	// own, not a field; write it to a .trace.json file instead.
	TraceJSON []byte `json:"-"`
	// MetricsJSON holds the mklite-metrics/v1 report when Options.Metrics
	// was set, and MetricsText its rendered tables. Documents of their
	// own, like TraceJSON.
	MetricsJSON []byte `json:"-"`
	MetricsText string `json:"-"`
}

func toJob(appName string, k Kernel, nodes int, seed uint64, opts *Options) (cluster.Job, error) {
	app, err := apps.Get(appName)
	if err != nil {
		return cluster.Job{}, err
	}
	kt, err := k.internalType()
	if err != nil {
		return cluster.Job{}, err
	}
	job := cluster.Job{App: app, Kernel: kt, Nodes: nodes, Seed: seed}
	if opts == nil {
		return job, nil
	}
	job.ForceDDROnly = opts.ForceDDROnly
	job.Quadrant = opts.Quadrant
	job.Trace = opts.observe().Trace
	job.Faults = opts.Faults
	if opts.Sched != "" {
		kind, err := sched.Parse(opts.Sched)
		if err != nil {
			return cluster.Job{}, fmt.Errorf("mklite: %w", err)
		}
		job.Sched = kind
	}
	if opts.UserSpaceFabric {
		job.Fabric = fabric.UserSpaceFabric()
	}
	mckOpts := mckernel.DefaultOptions()
	mckOpts.MpolShmPremap = opts.MpolShmPremap
	mckOpts.DisableSchedYield = opts.DisableSchedYield
	if opts.HPCHeap != nil {
		mckOpts.HPCBrk = *opts.HPCHeap
	}
	job.McK = &mckOpts
	if opts.HPCHeap != nil {
		mosCfg := mos.DefaultConfig()
		mosCfg.HeapManagement = *opts.HPCHeap
		job.MOS = &mosCfg
	}
	return job, nil
}

// Run executes one application at one node count on one kernel. The seed
// makes the run reproducible; repeated measurements should vary it. Run is
// the context.Background() form of RunContext.
func Run(appName string, k Kernel, nodes int, seed uint64, opts *Options) (Result, error) {
	return RunContext(context.Background(), appName, k, nodes, seed, opts)
}

// RunContext is Run with cancellation: fault plans with retries can
// re-execute a job several times, and callers may want to abandon the wait.
// Cancellation is safe for determinism-checked pipelines — a cancelled run
// returns ctx's error and never a partial Result, so no timing-dependent
// output can leak downstream.
func RunContext(ctx context.Context, appName string, k Kernel, nodes int, seed uint64, opts *Options) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	job, err := toJob(appName, k, nodes, seed, opts)
	if err != nil {
		return Result{}, err
	}
	observe := opts.observe()
	var ctrs *trace.Counters
	var evs *trace.Events
	var reg *metrics.Registry
	if observe != (Observe{}) {
		if observe.Counters {
			ctrs = trace.NewCounters()
		}
		if observe.Events {
			evs = trace.NewEvents(0)
		}
		var obs trace.Observer
		if observe.Metrics {
			reg = metrics.NewRegistry()
			obs = reg
		}
		job.Sink = trace.NewSinkObs(ctrs, evs, obs)
	}
	res, err := cluster.RunContext(ctx, job)
	if err != nil {
		return Result{}, err
	}
	out := Result{
		App:            res.App,
		Kernel:         res.Kernel,
		Nodes:          res.Nodes,
		Ranks:          res.Ranks,
		ElapsedSeconds: res.Elapsed.Seconds(),
		FOM:            res.FOM,
		Unit:           res.Unit,
		Breakdown: map[string]float64{
			"compute":   res.Breakdown.Compute.Seconds(),
			"memory":    res.Breakdown.Memory.Seconds(),
			"heap":      res.Breakdown.Heap.Seconds(),
			"syscall":   res.Breakdown.Syscall.Seconds(),
			"sched":     res.Breakdown.Sched.Seconds(),
			"comm":      res.Breakdown.Comm.Seconds(),
			"noise":     res.Breakdown.Noise.Seconds(),
			"shm-setup": res.Breakdown.SetupShm.Seconds(),
		},
		HeapQueries:    res.HeapStats.Queries,
		HeapGrows:      res.HeapStats.Grows,
		HeapShrinks:    res.HeapStats.Shrinks,
		HeapPeakBytes:  res.HeapStats.Peak,
		HeapGrownBytes: res.HeapStats.GrownBytes,
		HeapFaults:     res.HeapStats.Faults,
		MCDRAMBytes:    res.MCDRAMBytes,
		DemandRanks:    res.DemandRanks,
		StepTrace:      stepTrace(res.Steps),

		Retries:         res.Retries,
		RecoverySeconds: res.Recovery.Seconds(),
		Degraded:        res.Degraded,
		LostNodes:       res.LostNodes,
	}
	if ctrs != nil {
		out.Counters = ctrs.Map()
	}
	if evs != nil {
		out.TraceJSON = evs.JSON()
	}
	if reg != nil {
		rep := reg.Report()
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			return Result{}, err
		}
		out.MetricsJSON = buf.Bytes()
		out.MetricsText = rep.Render()
	}
	return out, nil
}

func stepTrace(steps []cluster.StepRecord) []StepTrace {
	if steps == nil {
		return nil
	}
	out := make([]StepTrace, len(steps))
	for i, s := range steps {
		out[i] = StepTrace{
			Compute: s.Compute.Seconds(),
			Memory:  s.Memory.Seconds(),
			Heap:    s.Heap.Seconds(),
			Syscall: s.Syscall.Seconds(),
			Sched:   s.Sched.Seconds(),
			Comm:    s.Comm.Seconds(),
			Noise:   s.Noise.Seconds(),
		}
	}
	return out
}

// FormatCounters renders a counter map as aligned "name value" lines,
// sorted by counter name — the human-readable form of Result.Counters.
func FormatCounters(m map[string]int64) string { return trace.FormatCounters(m) }

// Compare runs the application on all three kernels with the same seed. A
// kernel that fails no longer aborts the sweep: the successful Results are
// returned alongside a joined error naming the failed kernels, so callers
// can render a partial comparison (check the error, then use whatever
// Results came back).
func Compare(appName string, nodes int, seed uint64, opts *Options) ([]Result, error) {
	var out []Result
	var errs []error
	for _, k := range Kernels() {
		r, err := Run(appName, k, nodes, seed, opts)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", k, err))
			continue
		}
		out = append(out, r)
	}
	return out, errors.Join(errs...)
}
