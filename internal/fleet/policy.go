package fleet

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"mklite/internal/apps"
	"mklite/internal/cluster"
	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/par"
	"mklite/internal/sched"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// Choice is one job's full placement decision: which kernel the facility
// boots for it, and which scheduling policy that kernel runs. An empty Sched
// keeps the kernel's boot-time default (cfs on Linux, coop on the LWKs),
// which is byte-identical to selecting the kernel alone.
type Choice struct {
	Kernel kernel.Type
	Sched  sched.Kind
}

// KernelPolicy chooses a kernel — and optionally a scheduler — for each job
// the facility launches: the MultiK-style twist on batch scheduling. The
// facility can boot Linux, McKernel or mOS per job with any sched.Kind, and
// the policy decides both. Implementations must be deterministic pure
// functions of the job (plus any state computed deterministically at
// construction or on its first run); Select is called from the scheduler's
// single-goroutine event loop, never concurrently.
type KernelPolicy interface {
	// Name identifies the policy in results and reports.
	Name() string
	// Select returns the kernel (and scheduler) to boot for the job.
	Select(j *Job) Choice
}

// fixedPolicy runs every job on one kernel — the facility everyone operates
// today, and the baseline the adaptive policies are measured against.
type fixedPolicy struct{ k kernel.Type }

// Fixed returns the policy that runs every job on k with its default
// scheduler.
func Fixed(k kernel.Type) KernelPolicy { return fixedPolicy{k} }

func (p fixedPolicy) Name() string         { return "fixed-" + strings.ToLower(p.k.String()) }
func (p fixedPolicy) Select(j *Job) Choice { return Choice{Kernel: p.k} }

// schedOverride pins every job of a base policy to one scheduling policy —
// the ParsePolicy "<policy>:<sched>" suffix. The kernel decision is the
// base's; only the scheduler is forced.
type schedOverride struct {
	base KernelPolicy
	kind sched.Kind
}

// withSched wraps a policy so every selected kernel boots with the given
// scheduler instead of its default.
func withSched(p KernelPolicy, kind sched.Kind) KernelPolicy {
	return schedOverride{base: p, kind: kind}
}

func (p schedOverride) Name() string { return p.base.Name() + ":" + string(p.kind) }
func (p schedOverride) Select(j *Job) Choice {
	ch := p.base.Select(j)
	ch.Sched = p.kind
	return ch
}

// heuristicPolicy is the static profile heuristic: it reads the
// application's published syscall/noise profile off its Spec and picks the
// kernel the paper's mechanisms favour. No measurement, no state — the
// decision a site admin could make from the app's man page.
//
//   - Offload-bound apps — a device-heavy syscall path (DeviceSyscallFactor)
//     or intense sched_yield spinning — keep paying the proxy/migration
//     round trip on an LWK, and under co-tenant interference that round
//     trip inflates; they stay on Linux.
//   - Everything else is noise-bound at scale: frequent global collectives
//     amplify Linux's daemon detours, so the LWKs win. Heap-replay-heavy
//     apps (a non-trivial brk trace) go to mOS, whose heap optimisation is
//     the paper's section IV subject; the rest go to McKernel.
type heuristicPolicy struct{}

// Heuristic returns the static profile-based policy.
func Heuristic() KernelPolicy { return heuristicPolicy{} }

func (heuristicPolicy) Name() string { return "heuristic" }

// Offload-pressure thresholds of the heuristic, exported for the docs and
// tests: an app whose device syscall factor or per-step sched_yield count
// reaches these stays on Linux.
const (
	HeuristicSyscallFactor = 8.0
	HeuristicYieldsPerStep = 8000
)

func (heuristicPolicy) Select(j *Job) Choice {
	s := j.App
	if s.DeviceSyscallFactor >= HeuristicSyscallFactor || s.SchedYieldsPerStep >= HeuristicYieldsPerStep {
		return Choice{Kernel: kernel.TypeLinux}
	}
	if s.HeapOpsPerStep != nil && len(s.HeapOpsPerStep(j.Nodes)) > 0 {
		return Choice{Kernel: kernel.TypeMOS}
	}
	return Choice{Kernel: kernel.TypeMcKernel}
}

// calibrator is a policy whose state is measured on its first run, on
// that run's node images: the scheduler calls calibrate before the run's
// first Select, with the run's store, whether its images count and the
// timestep budget they are prepared for.
type calibrator interface {
	calibrate(imgs *cluster.Images, counting bool, budget int) error
}

func (p schedOverride) calibrate(imgs *cluster.Images, counting bool, budget int) error {
	if c, ok := p.base.(calibrator); ok {
		return c.calibrate(imgs, counting, budget)
	}
	return nil
}

// specializePolicy is the MultiK-style measured policy: on its first run
// it calibrates every application on every kernel — one short cluster run
// per (app, kernel) cell, under the interference template Specialize was
// given, at co-tenancy 1 — and specializes each app to the kernel that won
// its cell. Selection is then a pure table lookup. The template is the
// caller's, not the run's: the comparisons pass Config.Interference before
// Run normalises it, so without an explicit template they calibrate on
// quiet nodes even though their Share-2 jobs land under
// DefaultInterference. The cells run as views of the first run's node
// images (calibrationFOMs), so they share their setup with its jobs.
type specializePolicy struct {
	// cells are the calibration grid's jobs in cell order
	// (calibrationJobs).
	cells []cluster.Job
	// workers is the calibration's fan-out width.
	workers int

	once  sync.Once
	table map[string]kernel.Type
	err   error
}

// calibrationTimesteps is the per-cell budget of the specialize
// calibration: long enough for the steady-state step cost to dominate boot
// and setup, short enough that the whole 8x3 grid costs less than a handful
// of facility jobs.
const calibrationTimesteps = 12

// Specialize returns the per-app specialization policy, which calibrates
// on its first run. The calibration grid (every registry app x every
// kernel) fans out through internal/par at the given width; results are
// byte-identical at any width because each cell derives its seed from
// (seed, cell index) and the argmax is taken after the join, in cell
// order. interference is the co-tenancy template calibration applies at
// co-tenancy 1 (nil = calibrate on quiet nodes).
func Specialize(seed uint64, workers int, interference *fault.Plan) (KernelPolicy, error) {
	if err := interference.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: specialize: %w", err)
	}
	cells, err := calibrationJobs(seed, interference)
	if err != nil {
		return nil, err
	}
	return &specializePolicy{cells: cells, workers: workers}, nil
}

// calibrationJobs returns the calibration grid's cells in cell order: each
// registry app, at calibrationTimesteps steps and at its largest evaluated
// node count up to calibrationNodes, on each kernel with its default
// scheduler, under interferenceFor(tmpl, 1) and on the cell's own seed.
func calibrationJobs(seed uint64, tmpl *fault.Plan) ([]cluster.Job, error) {
	all := apps.All()
	kts := []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS}
	plan := interferenceFor(tmpl, 1)
	calSeedBase := sim.StreamSeed(seed, StreamCalibrate)
	cells := make([]cluster.Job, 0, len(all)*len(kts))
	for _, app := range all {
		spec := *app
		spec.Timesteps = calibrationTimesteps
		counts := eligibleNodeCounts(&spec, calibrationNodes)
		if len(counts) == 0 {
			return nil, fmt.Errorf("fleet: calibration: %s has no node count <= %d", app.Name, calibrationNodes)
		}
		for _, kt := range kts {
			cells = append(cells, cluster.Job{
				App:    &spec,
				Kernel: kt,
				Nodes:  counts[len(counts)-1],
				Seed:   sim.StreamSeed(calSeedBase, uint64(len(cells))),
				Faults: plan,
			})
		}
	}
	return cells, nil
}

// calibrationFOMs runs the calibration cells, each as the Steps view of
// its node image from imgs (keyed with the run's counting and budget), at
// the given width, and returns their FOMs in cell order.
func calibrationFOMs(imgs *cluster.Images, cells []cluster.Job, workers int, counting bool, budget int) ([]float64, error) {
	return par.MapWidthErr(workers, len(cells), func(i int) (float64, error) {
		c := cells[i]
		// The cell runs without a sink, but its image is keyed as the
		// run's jobs' are: counting when they count.
		var ctrs *trace.Counters
		if counting {
			ctrs = trace.NewCounters()
		}
		c.Sink = trace.NewSink(ctrs, nil)
		img, err := imgs.Image(budgeted(c, budget))
		if err == nil {
			img, err = img.Steps(c.App.Timesteps)
		}
		var res cluster.Result
		if err == nil {
			res, err = img.Run(context.TODO(), c.Seed, nil)
		}
		if err != nil {
			return 0, fmt.Errorf("fleet: calibrating %s on %v: %w", c.App.Name, c.Kernel, err)
		}
		return res.FOM, nil
	})
}

// calibrate measures the calibration grid on the first call and builds the
// table; later calls, from any run, return the first call's error.
func (p *specializePolicy) calibrate(imgs *cluster.Images, counting bool, budget int) error {
	p.once.Do(func() {
		foms, err := calibrationFOMs(imgs, p.cells, p.workers, counting, budget)
		if err != nil {
			p.err = err
			return
		}
		table := make(map[string]kernel.Type)
		best := make(map[string]float64)
		for i, c := range p.cells {
			if f, seen := best[c.App.Name]; !seen || foms[i] > f {
				best[c.App.Name], table[c.App.Name] = foms[i], c.Kernel
			}
		}
		p.table = table
	})
	return p.err
}

// calibrationNodes caps the calibration cell's node count: the largest
// evaluated size up to this, so the cell sees collective amplification
// without paying a full-scale run.
const calibrationNodes = 16

func (p *specializePolicy) Name() string { return "specialize" }

func (p *specializePolicy) Select(j *Job) Choice {
	if p.table == nil {
		panic("fleet: specialize policy selected before a run calibrated it")
	}
	if k, ok := p.table[j.App.Name]; ok {
		return Choice{Kernel: k}
	}
	return Choice{Kernel: kernel.TypeMcKernel}
}

// PolicyNames lists the selectable policy spellings of ParsePolicy. Any of
// them takes an optional ":<sched>" suffix (e.g. "heuristic:gang") forcing
// that scheduling policy on every selected kernel.
func PolicyNames() []string {
	return []string{"fixed-linux", "fixed-mckernel", "fixed-mos", "heuristic", "specialize"}
}

// ParsePolicy resolves a policy name, optionally suffixed ":<sched>" to pin
// every job's scheduler (any sched.Kinds spelling). "specialize" runs its
// calibration grid on its first run, so it needs the facility seed,
// fan-out width and interference template; the other policies ignore them.
func ParsePolicy(name string, seed uint64, workers int, interference *fault.Plan) (KernelPolicy, error) {
	base, schedSuffix, hasSched := strings.Cut(name, ":")
	var kind sched.Kind
	if hasSched {
		var err error
		if kind, err = sched.Parse(schedSuffix); err != nil {
			return nil, fmt.Errorf("fleet: policy %q: %w", name, err)
		}
	}
	var pol KernelPolicy
	var err error
	switch base {
	case "fixed-linux":
		pol = Fixed(kernel.TypeLinux)
	case "fixed-mckernel":
		pol = Fixed(kernel.TypeMcKernel)
	case "fixed-mos":
		pol = Fixed(kernel.TypeMOS)
	case "heuristic":
		pol = Heuristic()
	case "specialize":
		pol, err = Specialize(seed, workers, interference)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("fleet: unknown kernel policy %q (known: %v, each with an optional :<sched> suffix)", name, PolicyNames())
	}
	if hasSched {
		pol = withSched(pol, kind)
	}
	return pol, nil
}
