// Package fleet is the facility layer above internal/cluster: a
// deterministic SLURM-like batch scheduler that generates a seeded stream of
// jobs (arrival process, application mix, per-job node count and timestep
// budget), queues them with FIFO or conservative-backfill policies, selects
// a kernel per job through a pluggable policy (the MultiK twist: the
// facility scheduler chooses Linux vs McKernel vs mOS per job), allocates
// nodes from a finite facility — optionally oversubscribed, with cross-job
// interference on shared nodes expressed as daemon-storm / offload-contention
// fault plans — and runs every launched job on a cluster node image.
// Images live in a node image store (cluster.Images), not in a run: a run
// keeps one of its own unless Config.Images hands it one, and the legs of
// a policy comparison share one. Each job asks the store for its image,
// prepared at the run's longest timestep budget, and runs its view at its
// own budget and seed (cluster.Image.Steps, Image.Run); the store prepares
// one image per node layout (cluster.SameLayout) of each shape
// (application, kernel, scheduler, interference plan) and gives each node
// count its view (cluster.Image.Nodes). The specialize policy calibrates
// on its first run, its cells as views of that run's store.
//
// The determinism contract is the module's usual one, lifted one level up:
// a facility run is a pure function of (Config, seed).
//
//  1. Every stochastic draw (interarrival gaps, job mix, node counts,
//     timestep budgets, walltime safety factors) comes from sim.StreamSeed
//     sub-streams of Config.Seed; per-job cluster seeds are derived from the
//     job ID, never from scheduling state, so a job's simulated outcome does
//     not depend on when — or how wide — the launch pipeline ran it.
//  2. The facility clock is virtual (sim.Time). Scheduling decisions depend
//     only on queue state at clock events (arrivals and completions), and
//     the scheduler needs a running job's result only for its completion
//     time. Every launch is therefore submitted to an internal/par Pipe and
//     the event loop runs ahead of it (conservative lookahead): each job
//     carries a provable earliest end, start + cluster.MinResident, and
//     the loop resolves a pending job — and every job launched before it,
//     in launch order — only once the next clock event reaches that bound.
//     Which jobs are resolved when is a function of the schedule alone,
//     never of which results happen to be ready, so a run is byte-identical
//     at any pipeline width, enforced by determinism tests at widths 1, 2
//     and 4 under -race and by FuzzFacility. A job that completes before
//     its bound is a model bug and panics.
//  3. Scheduler and Allocator are per-facility-run state, like a *sim.RNG
//     or a *trace.Sink: they must never be captured across internal/par
//     job closures. mklint's parshare analyzer rejects the capture; the
//     closures receive immutable launch specs and return results that the
//     scheduler commits in launch order.
//
// Facility metrics flow through the existing observability stack: queue
// waits feed an internal metrics.Registry histogram (p50/p99 via the same
// quantile rule as every other figure), fleet.* counters ride a trace
// sink, and per-job cluster counters are merged in job order when enabled.
// See docs/FLEET.md.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"mklite/internal/cluster"
	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/obs"
	"mklite/internal/sim"
)

// Stream ids for sim.StreamSeed: the workload generator's draw families.
// Each family has its own sub-stream of Config.Seed so adding a draw to one
// never perturbs another.
const (
	// StreamArrivals seeds the interarrival-gap draws.
	StreamArrivals uint64 = 0xf1ee70
	// StreamJobs is the base of the per-job attribute streams: job i draws
	// from sim.StreamSeed(sim.StreamSeed(seed, StreamJobs), i).
	StreamJobs uint64 = 0xf1ee71
	// StreamCalibrate seeds the specialize policy's calibration runs.
	StreamCalibrate uint64 = 0xf1ee72
	// StreamRuns is the base of the per-job cluster-run seeds: job i runs
	// with sim.StreamSeed(sim.StreamSeed(seed, StreamRuns), i), a family
	// disjoint from the attribute streams.
	StreamRuns uint64 = 0xf1ee73
)

// Config describes one facility run.
type Config struct {
	// Nodes is the facility size (the finite node pool jobs are allocated
	// from).
	Nodes int
	// Jobs is the number of jobs in the generated stream.
	Jobs int
	// Seed drives every stochastic draw; same (Config, Seed) => identical
	// Result bytes.
	Seed uint64
	// Workers bounds the launch pipeline's width: how many launched jobs
	// execute at once while the event loop runs ahead (0 = GOMAXPROCS,
	// 1 = sequential, each job run inline at launch). Results are
	// byte-identical at any width.
	Workers int
	// Policy selects the kernel for each launched job; nil selects
	// Heuristic().
	Policy KernelPolicy
	// Backfill enables conservative backfill; false is strict FIFO (the
	// queue head blocks everything behind it).
	Backfill bool
	// BackfillDepth bounds how many queued jobs receive reservations per
	// scheduling pass (SLURM's bf_max_job_test); 0 selects
	// DefaultBackfillDepth. Only meaningful with Backfill set.
	BackfillDepth int
	// Share is the node oversubscription factor: how many jobs may
	// co-occupy one node (1 = exclusive allocation, the default).
	Share int
	// Interference is the per-job fault-plan template applied to jobs
	// whose allocation lands on nodes already occupied by other jobs
	// (Share > 1). Storm offload inflation and offload stall probability
	// scale with the launch-time co-tenancy. Nil selects
	// DefaultInterference() when Share > 1; an explicitly empty plan
	// disables interference.
	Interference *fault.Plan
	// ArrivalMean is the mean of the exponential interarrival gap; 0
	// selects DefaultArrivalMean.
	ArrivalMean sim.Duration
	// MaxJobNodes caps the per-job node count draw; 0 selects
	// DefaultMaxJobNodes. Draws are further capped at Nodes so every job
	// fits the facility.
	MaxJobNodes int
	// MinTimesteps/MaxTimesteps bound the per-job timestep budget draw;
	// zero selects DefaultMinTimesteps/DefaultMaxTimesteps.
	MinTimesteps int
	MaxTimesteps int
	// Counters merges every job's cluster-level mechanism counters (one
	// trace.Counters per job, created inside the job closure, merged in
	// launch order as each job is resolved) into Result.Counters.
	Counters bool
	// PerJob records every job's outcome into Result.PerJob.
	PerJob bool
	// Observe attaches the facility observability backends (internal/obs):
	// the node-occupancy timeline, the backfill decision log, the namespaced
	// per-job counter view, and per-job event tracks. Nil disables
	// everything; a run with Observe nil is byte-identical to one made
	// before the field existed.
	Observe *obs.Options
	// SLO is the declarative watchdog evaluated on the finished run's
	// summary metrics (see Result.SLOValues for the metric names); the
	// report lands in Result.SLO. Nil skips evaluation.
	SLO *obs.SLO
	// Images is the node image store the run's jobs, and a specialize
	// policy's calibration, take their images from (cluster.Images). Runs
	// that share a store prepare each image and build each noise table
	// once between them, and every run's outputs equal those on a store of
	// its own; copies of one Config share its store. Nil gives the run a
	// store of its own, dropped with the run.
	Images *cluster.Images
}

// Defaults for the zero-valued Config knobs.
const (
	DefaultBackfillDepth = 32
	DefaultShare         = 1
	DefaultArrivalMean   = 40 * sim.Millisecond
	DefaultMaxJobNodes   = 32
	DefaultMinTimesteps  = 8
	DefaultMaxTimesteps  = 24
)

// normalize fills defaults.
func (c Config) normalize() Config {
	if c.Nodes <= 0 {
		c.Nodes = 256
	}
	if c.Jobs <= 0 {
		c.Jobs = 1000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Policy == nil {
		c.Policy = Heuristic()
	}
	if c.BackfillDepth <= 0 {
		c.BackfillDepth = DefaultBackfillDepth
	}
	if c.Share <= 0 {
		c.Share = DefaultShare
	}
	if c.Interference == nil && c.Share > 1 {
		c.Interference = DefaultInterference()
	}
	if c.ArrivalMean <= 0 {
		c.ArrivalMean = DefaultArrivalMean
	}
	if c.MaxJobNodes <= 0 {
		c.MaxJobNodes = DefaultMaxJobNodes
	}
	if c.MaxJobNodes > c.Nodes {
		c.MaxJobNodes = c.Nodes
	}
	if c.MinTimesteps <= 0 {
		c.MinTimesteps = DefaultMinTimesteps
	}
	if c.MaxTimesteps < c.MinTimesteps {
		c.MaxTimesteps = DefaultMaxTimesteps
	}
	if c.MaxTimesteps < c.MinTimesteps {
		c.MaxTimesteps = c.MinTimesteps
	}
	return c
}

// validate rejects configs outside the model's domain.
func (c Config) validate() error {
	if err := c.Interference.Validate(); err != nil {
		return fmt.Errorf("fleet: interference plan: %w", err)
	}
	if c.Interference != nil && c.Interference.NodeFail != nil {
		return fmt.Errorf("fleet: interference plan must not inject node failures (job retries belong to per-job plans)")
	}
	if c.Observe.TimelineOn() {
		tl := c.Observe.Timeline
		if tl.Nodes() != c.Nodes || tl.Share() != c.Share {
			return fmt.Errorf("fleet: timeline built for %d nodes x %d slots, facility is %d x %d",
				tl.Nodes(), tl.Share(), c.Nodes, c.Share)
		}
	}
	return nil
}

// DefaultInterference is the built-in co-tenancy fault-plan template: a
// daemon storm (the neighbour job's Linux-side services competing for the
// shared node's cores) plus offload-channel contention (its offloaded
// syscalls queueing against ours on the shared Linux cores). On Linux the
// storm lands on the application cores directly; on the LWKs the
// partitioned cores stay clean but every offloaded syscall pays the
// inflated round trip — the paper's isolation argument, at facility scale.
// Burst intensity and stall probability scale with launch-time co-tenancy.
func DefaultInterference() *fault.Plan {
	return &fault.Plan{
		Storm: &fault.DaemonStorm{
			Period:        2 * sim.Millisecond,
			Burst:         150 * sim.Microsecond,
			CV:            0.5,
			OffloadFactor: 2,
		},
		Offload: &fault.OffloadFault{
			StallProb: 0.002,
			Stall:     200 * sim.Microsecond,
		},
	}
}

// interferenceFor instantiates the template for a job with the given
// launch-time co-tenancy (the maximum number of other jobs already occupying
// any of its allocated nodes). Co-tenancy 0 (exclusive nodes) returns nil.
// The daemon-storm offload inflation and the offload stall probability scale
// linearly with co-tenancy; the storm's burst pattern itself does not (the
// shared Linux cores saturate, they do not multiply).
func interferenceFor(tmpl *fault.Plan, cotenancy int) *fault.Plan {
	if tmpl == nil || cotenancy <= 0 || tmpl.Empty() {
		return nil
	}
	c := float64(cotenancy)
	p := &fault.Plan{}
	if s := tmpl.Storm; s != nil {
		storm := *s
		if storm.OffloadFactor > 1 {
			storm.OffloadFactor = 1 + (storm.OffloadFactor-1)*c
		}
		p.Storm = &storm
	}
	if o := tmpl.Offload; o != nil {
		off := *o
		off.StallProb = min(off.StallProb*c, 1)
		p.Offload = &off
	}
	if l := tmpl.Link; l != nil {
		lnk := *l
		lnk.LossProb = min(lnk.LossProb*c, 0.999999)
		p.Link = &lnk
	}
	p.Stragglers = append(p.Stragglers, tmpl.Stragglers...)
	if p.Empty() {
		return nil
	}
	return p
}

// JobOutcome is one completed job's record in Result.PerJob.
type JobOutcome struct {
	ID     int    `json:"id"`
	App    string `json:"app"`
	Kernel string `json:"kernel"`
	// Sched is the policy's scheduler choice (empty = the kernel default,
	// omitted from JSON so default facilities stay byte-identical).
	Sched     string `json:"sched,omitempty"`
	Nodes     int    `json:"nodes"`
	Timesteps int    `json:"timesteps"`
	// Virtual facility-clock timeline, in seconds.
	ArrivalSec float64 `json:"arrival_sec"`
	StartSec   float64 `json:"start_sec"`
	WaitSec    float64 `json:"wait_sec"`
	ElapsedSec float64 `json:"elapsed_sec"`
	FOM        float64 `json:"fom"`
	// Backfilled reports the job started ahead of an earlier-arrived job
	// that was still waiting.
	Backfilled bool `json:"backfilled,omitempty"`
	// Cotenancy is the launch-time co-tenancy (0 = exclusive nodes).
	Cotenancy int `json:"cotenancy,omitempty"`
}

// Result is one facility run's outcome. All fields are deterministic
// functions of (Config, Seed); the JSON form is byte-stable (map keys are
// sorted by encoding/json), which CI exploits with a two-run diff.
type Result struct {
	Policy        string `json:"policy"`
	FacilityNodes int    `json:"facility_nodes"`
	Share         int    `json:"share"`
	Jobs          int    `json:"jobs"`
	Backfilled    int    `json:"backfilled"`
	// Interfered counts jobs launched with a non-nil co-tenancy plan.
	Interfered int `json:"interfered"`

	// MakespanSec is the virtual time from facility start to the last
	// completion.
	MakespanSec float64 `json:"makespan_sec"`
	// JobsPerHour is the facility throughput over the makespan, in jobs
	// per virtual hour.
	JobsPerHour float64 `json:"jobs_per_hour"`
	// UtilizationPct is the fraction of node-time with at least one job
	// resident, in percent of Nodes x makespan.
	UtilizationPct float64 `json:"utilization_pct"`

	// Queue-wait distribution over all jobs (virtual seconds), quantiles
	// from the internal metrics histogram (same Rank rule as every other
	// figure).
	WaitP50Sec  float64 `json:"wait_p50_sec"`
	WaitP99Sec  float64 `json:"wait_p99_sec"`
	WaitMaxSec  float64 `json:"wait_max_sec"`
	WaitMeanSec float64 `json:"wait_mean_sec"`

	// KernelJobs counts launched jobs per selected kernel.
	KernelJobs map[string]int `json:"kernel_jobs"`

	// DegradedJobs counts jobs whose cluster run completed degraded (on a
	// reduced node set). Fleet interference plans cannot inject node
	// failures, so this stays zero — and omitted — unless a custom policy
	// layer introduces them; the SLO watchdog still exposes it as the
	// degraded_jobs metric.
	DegradedJobs int `json:"degraded_jobs,omitempty"`

	// Counters is the job-order merge of every job's cluster-level
	// mechanism counters plus the fleet.* scheduler counters
	// (Config.Counters).
	Counters map[string]int64 `json:"counters,omitempty"`

	// JobCounters is the provenance-preserving per-job counter view,
	// namespaced job/<id>/<name> (Config.Observe.JobCounters). The flat
	// Counters merge is unchanged; this view is additional, so the sum of
	// job/<id>/x over all ids equals the per-job contribution to x.
	JobCounters map[string]int64 `json:"job_counters,omitempty"`

	// SLO is the watchdog report for Config.SLO, rule results in rule
	// order (nil when no SLO was configured).
	SLO *obs.SLOReport `json:"slo,omitempty"`

	// PerJob is the per-job record in job-ID order (Config.PerJob).
	PerJob []JobOutcome `json:"per_job,omitempty"`
}

// ReadResult parses one facility result as mkfleet -json writes it. Unknown
// fields, trailing data, and a result with facility_nodes or jobs below 1
// are errors, so a foreign JSON document (a metrics report, `{}`) is
// rejected rather than judged as a zero-valued run.
func ReadResult(data []byte) (*Result, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Result
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("fleet: parsing result: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, errors.New("fleet: trailing data after the result")
	}
	if r.FacilityNodes < 1 || r.Jobs < 1 {
		return nil, fmt.Errorf("fleet: result has facility_nodes %d and jobs %d, want both >= 1", r.FacilityNodes, r.Jobs)
	}
	return &r, nil
}

// SLOValues publishes the run's summary metrics for obs.SLO evaluation.
// Every key here is a valid SLO rule metric; mkobs check evaluates specs
// against a loaded Result with the same map, so the CLI and the in-run
// watchdog can never disagree.
func (r *Result) SLOValues() map[string]float64 {
	return map[string]float64{
		"jobs":            float64(r.Jobs),
		"backfilled_jobs": float64(r.Backfilled),
		"interfered_jobs": float64(r.Interfered),
		"degraded_jobs":   float64(r.DegradedJobs),
		"makespan_sec":    r.MakespanSec,
		"jobs_per_hour":   r.JobsPerHour,
		"utilization_pct": r.UtilizationPct,
		"wait_p50_sec":    r.WaitP50Sec,
		"wait_p99_sec":    r.WaitP99Sec,
		"wait_max_sec":    r.WaitMaxSec,
		"wait_mean_sec":   r.WaitMeanSec,
	}
}

// Run executes one facility run: generate the stream, schedule it to
// completion, and report facility metrics. It is a pure function of cfg
// (including cfg.Seed).
func Run(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	stream, err := GenerateStream(cfg)
	if err != nil {
		return nil, err
	}
	s := newScheduler(cfg)
	return s.run(stream)
}

// kernelName is the display name used in KernelJobs and JobOutcome.
func kernelName(k kernel.Type) string { return k.String() }
