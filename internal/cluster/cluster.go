// Package cluster is the experiment harness: it boots a kernel on a model
// KNL node, lays out an application's ranks (address spaces, heaps, MPI
// shared-memory windows) through the kernel's real memory-management code
// paths, and then runs the application's timestep trace across N such nodes
// — composing compute, memory-bandwidth, heap, system-call, network and
// noise costs into an elapsed time and the paper's figure of merit.
//
// SPMD jobs are homogeneous per node, so the harness materialises one
// node's full memory image and reuses the derived per-rank parameters for
// all nodes; per-step noise maxima are still sampled across the entire
// job's rank count, which is where scale enters.
//
// Nothing that builds the image draws a random number, so the image is
// reused across repetitions as well as nodes: Prepare boots the kernel,
// lays the node out and replays its heap phase once, and each Image.Run
// adds only the seeded work (scheduler state, fault injection, noise
// draws and step composition). Concurrent runs may share one image, and
// an image prepared for T timesteps runs the job for any fewer of them
// through Image.Steps, so jobs that differ only in seed and timestep
// budget share one image too (the facility's jobs of one shape). Image.Sched
// runs the job under another scheduling policy, so the scheduler sweep
// prepares one image for all six, and Image.Nodes on another node count
// whose ranks lay out the same node (SameLayout), so Figure 4 prepares one
// image per application, kernel and layout.
package cluster

import (
	"context"
	"fmt"

	"mklite/internal/apps"
	"mklite/internal/fabric"
	"mklite/internal/fault"
	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/linuxos"
	"mklite/internal/mckernel"
	"mklite/internal/mem"
	"mklite/internal/mos"
	"mklite/internal/sched"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// Job describes one run: an application at a node count on a kernel.
type Job struct {
	App    *apps.Spec
	Kernel kernel.Type
	Nodes  int
	// Seed drives all stochastic draws; same seed => identical result.
	Seed uint64

	// Fabric overrides the interconnect (default: Omni-Path).
	Fabric *fabric.Spec
	// McK carries McKernel job options (proxy flags, heap branch);
	// nil selects the defaults.
	McK *mckernel.Options
	// MOS carries the mOS boot configuration; nil selects the defaults.
	MOS *mos.Config
	// Linux carries the Linux boot configuration; nil selects the
	// defaults.
	Linux *linuxos.Config
	// Sched overrides the booted kernel's scheduling policy (see
	// internal/sched); empty keeps each kernel's default — cfs on Linux,
	// coop on the LWKs — under which the run is byte-identical to a
	// pre-policy simulator. The override is copied into whichever OS
	// config the job boots, so it works on all three kernels.
	Sched sched.Kind
	// ForceDDROnly pins all application memory to DDR4 regardless of
	// kernel (the Table I and CCS-QCD-DDR experiments).
	ForceDDROnly bool
	// Quadrant runs the node in quadrant mode instead of SNC-4: one
	// DDR4 domain with all cores plus one MCDRAM domain. Linux can then
	// express "prefer MCDRAM, spill to DDR" with numactl -p, at the
	// cost of the SNC-4 mesh advantage (section III-B).
	Quadrant bool
	// Trace records a per-timestep breakdown into Result.Steps.
	Trace bool
	// Sink receives mechanism counters and virtual-time events for this
	// run. It must be owned by the run (never shared across par workers)
	// and is purely observational: results are byte-identical with or
	// without one attached.
	Sink *trace.Sink
	// Faults, when non-nil and non-empty, schedules deterministic fault
	// injection for the run (see internal/fault and docs/FAULTS.md). The
	// injector draws from its own sim.StreamSeed stream, so a nil or
	// empty plan leaves every output byte-identical to a faultless build.
	Faults *fault.Plan
}

// StepRecord is one timestep's attribution (recorded when Job.Trace).
type StepRecord struct {
	Compute sim.Duration
	Memory  sim.Duration
	Heap    sim.Duration
	Syscall sim.Duration
	Sched   sim.Duration
	Comm    sim.Duration
	Noise   sim.Duration
}

// Total returns the step's duration.
func (s StepRecord) Total() sim.Duration {
	return s.Compute + s.Memory + s.Heap + s.Syscall + s.Sched + s.Comm + s.Noise
}

// jobDefaults holds the defaults normalized fills in, so a run takes one
// allocation for all of them.
type jobDefaults struct {
	fabric fabric.Spec
	mck    mckernel.Options
	mos    mos.Config
	linux  linuxos.Config
}

// normalized fills defaults.
func (j Job) normalized() Job {
	if j.Fabric != nil && j.McK != nil && j.MOS != nil && j.Linux != nil {
		return j
	}
	d := new(jobDefaults)
	if j.Fabric == nil {
		d.fabric = *fabric.OmniPath()
		j.Fabric = &d.fabric
	}
	if j.McK == nil {
		d.mck = mckernel.DefaultOptions()
		j.McK = &d.mck
	}
	if j.MOS == nil {
		d.mos = mos.DefaultConfig()
		j.MOS = &d.mos
	}
	if j.Linux == nil {
		d.linux = linuxos.DefaultConfig()
		j.Linux = &d.linux
	}
	return j
}

// Breakdown attributes the run's per-node time to mechanisms; the ablation
// experiments and tests assert against it.
type Breakdown struct {
	Compute  sim.Duration // pure flops
	Memory   sim.Duration // bandwidth-limited traffic
	Heap     sim.Duration // brk servicing + heap faults
	Syscall  sim.Duration // device syscalls, sched_yield, traps
	Sched    sim.Duration // explicit scheduler charges (non-default policies)
	Comm     sim.Duration // wire time of halo + collectives
	Noise    sim.Duration // interference absorbed (incl. amplification)
	SetupShm sim.Duration // first-touch of MPI shm windows (timed phase)
}

// Total sums the attributed time.
func (b Breakdown) Total() sim.Duration {
	return b.Compute + b.Memory + b.Heap + b.Syscall + b.Sched + b.Comm + b.Noise + b.SetupShm
}

// Result is one run's outcome.
type Result struct {
	App    string
	Kernel string
	Nodes  int
	Ranks  int

	// Elapsed is the timed (solve) phase duration.
	Elapsed sim.Duration
	// FOM is the application's figure of merit (rate in Unit).
	FOM  float64
	Unit string

	// Setup is the untimed initialisation (mmap + first touch of the
	// working set), reported for analysis.
	Setup sim.Duration
	// Breakdown attributes the timed phase.
	Breakdown Breakdown
	// HeapStats is rank 0's heap accounting after the run.
	HeapStats mem.HeapStats
	// MCDRAMBytes is the model node's MCDRAM residency after the run:
	// setup's, moved by the heap phase.
	MCDRAMBytes int64
	// DemandRanks counts ranks that ended up demand-paged.
	DemandRanks int
	// Steps holds the per-timestep attribution when Job.Trace was set.
	Steps []StepRecord

	// Retries counts failed attempts re-executed after transient node
	// failures (zero without an active fault plan).
	Retries int
	// Recovery is the virtual time lost to failed attempts and retry
	// backoff, included in Elapsed: with faults active,
	// Elapsed = Breakdown.Total() + Recovery.
	Recovery sim.Duration
	// Degraded reports that the job completed on a reduced node set
	// after exhausting retries (Plan.AllowDegraded).
	Degraded bool
	// LostNodes counts the nodes dropped by degraded completion; Nodes
	// reports the surviving count the result was computed on.
	LostNodes int
}

// bootKernel constructs the requested kernel on a fresh KNL node.
func bootKernel(j Job) (kernel.Kernel, error) {
	node := hw.KNL7250SNC4()
	if j.Quadrant {
		node = hw.KNL7250Quadrant()
	}
	switch j.Kernel {
	case kernel.TypeLinux:
		return linuxos.Boot(node, *j.Linux)
	case kernel.TypeMcKernel:
		k, _, err := mckernel.Deploy(node, *j.McK)
		if err != nil {
			return nil, err
		}
		return k, nil
	case kernel.TypeMOS:
		return mos.Boot(node, *j.MOS)
	default:
		return nil, fmt.Errorf("cluster: unknown kernel type %v", j.Kernel)
	}
}

// BootDefault boots kernel type kt with its default configuration on a
// fresh SNC-4 KNL node: the one boot behind the LTP catalogue, the exact
// brk-trace replay and the node-level API. An unknown type is an error.
func BootDefault(kt kernel.Type) (kernel.Kernel, error) {
	return bootKernel(Job{Kernel: kt}.normalized())
}

// Run executes the job and returns its result. It is the
// context.Background() form of RunContext.
func Run(j Job) (Result, error) {
	return RunContext(context.Background(), j)
}

// RunContext executes the job: Prepare, then one Run of the image with the
// job's seed and sink. It honours ctx as Run does.
func RunContext(ctx context.Context, j Job) (Result, error) {
	img, err := Prepare(ctx, j)
	if err != nil {
		return Result{}, err
	}
	return img.Run(ctx, j.Seed, j.Sink)
}

// stepCompute is one timestep's pure-flop time at the given node count —
// the compute term of every step's composition (stepParts.compute).
func stepCompute(app *apps.Spec, nodes int) sim.Duration {
	return sim.DurationOf(app.FlopsPerStep(nodes) / (app.EffGFlops * 1e9))
}

// MinResident is a provable lower bound on a successful run's
// Setup + Elapsed, computed without running it: Timesteps x the per-step
// compute term. Every completed attempt executes all of the application's
// timesteps, each step's duration is its compute term plus memory, heap,
// syscall, scheduler, comm and noise terms that are all non-negative, and
// setup, shm first-touch and fault recovery only add time. When the plan
// lets the job finish degraded on fewer nodes, the bound takes the smallest
// compute term over every node count it could shrink to. A job that cannot
// run (no application, no compute model, no nodes) bounds at 0.
//
// Callers that schedule around a run's completion — the facility's
// lookahead pipeline — may advance their clock up to start + MinResident
// before they need the actual result.
func MinResident(j Job) sim.Duration {
	app := j.App
	if app == nil || app.FlopsPerStep == nil || app.EffGFlops <= 0 || app.Timesteps <= 0 || j.Nodes <= 0 {
		return 0
	}
	cpu := stepCompute(app, j.Nodes)
	if p := j.Faults; p != nil && p.NodeFail != nil && p.AllowDegraded {
		for n := 1; n < j.Nodes; n++ {
			cpu = min(cpu, stepCompute(app, n))
		}
	}
	return sim.Duration(app.Timesteps) * cpu
}
