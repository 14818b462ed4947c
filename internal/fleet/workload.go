package fleet

import (
	"fmt"

	"mklite/internal/apps"
	"mklite/internal/sim"
)

// Job is one generated unit of the facility's workload: an application at a
// node count with a timestep budget, an arrival time on the virtual facility
// clock, and a walltime limit for the scheduler's reservations. Jobs are
// immutable after generation — the scheduler passes them into par worker
// closures, so any mutable launch-time state (kernel choice, allocation,
// interference plan) lives in the scheduler's launch spec, never on the Job.
type Job struct {
	// ID is the job's position in the stream; per-job seeds derive from it.
	ID int
	// App is the job's application spec, cloned from the registry with the
	// job's own timestep budget.
	App *apps.Spec
	// Nodes is the requested node count (<= facility size by construction).
	Nodes int
	// Timesteps is the job's timestep budget (App.Timesteps == Timesteps).
	Timesteps int
	// Seed is the job's cluster-run seed, derived from (Config.Seed, ID)
	// only — never from scheduling state — so the simulated outcome is
	// independent of when the scheduler launches the job.
	Seed uint64
	// Arrival is the job's submission time on the facility clock.
	Arrival sim.Time
	// WallLimit is the job's walltime request: a deterministic runtime
	// estimate times a drawn safety factor. Reservations in the
	// conservative-backfill pass are sized by it; jobs are never killed
	// for exceeding it (the scheduler learns exact completion times from
	// the job's result, so an overrun only makes a reservation
	// conservative).
	WallLimit sim.Duration
}

// GenerateStream produces the facility's job stream: Jobs arrivals from a
// Poisson process (exponential gaps, mean cfg.ArrivalMean), each job's
// application drawn uniformly from the registry, node count drawn from the
// application's evaluated sizes capped at cfg.MaxJobNodes, and timestep
// budget drawn uniformly in [MinTimesteps, MaxTimesteps]. Every draw comes
// from sim.StreamSeed sub-streams of cfg.Seed: the arrival process has its
// own stream, and each job's attributes come from the job's own stream, so
// the stream is reproducible job by job.
func GenerateStream(cfg Config) ([]*Job, error) {
	cfg = cfg.normalize()
	all := apps.All()
	arr := sim.NewRNG(sim.StreamSeed(cfg.Seed, StreamArrivals))
	attrSeedBase := sim.StreamSeed(cfg.Seed, StreamJobs)
	runSeedBase := sim.StreamSeed(cfg.Seed, StreamRuns)

	jobs := make([]*Job, cfg.Jobs)
	clock := sim.Time(0)
	for i := range jobs {
		gap := sim.Duration(arr.ExpFloat64() * float64(cfg.ArrivalMean))
		clock = clock.Add(gap)
		j, err := generateJob(cfg, all, attrSeedBase, runSeedBase, i, clock)
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	return jobs, nil
}

// generateJob draws job i's attributes from its own stream.
func generateJob(cfg Config, all []*apps.Spec, attrSeedBase, runSeedBase uint64, i int, arrival sim.Time) (*Job, error) {
	rng := sim.NewRNG(sim.StreamSeed(attrSeedBase, uint64(i)))
	base := all[rng.Intn(len(all))]

	counts := eligibleNodeCounts(base, cfg.MaxJobNodes)
	if len(counts) == 0 {
		return nil, fmt.Errorf("fleet: %s has no evaluated node count <= %d", base.Name, cfg.MaxJobNodes)
	}
	nodes := counts[rng.Intn(len(counts))]

	budget := cfg.MinTimesteps
	if cfg.MaxTimesteps > cfg.MinTimesteps {
		budget += rng.Intn(cfg.MaxTimesteps - cfg.MinTimesteps + 1)
	}
	spec := *base // shallow clone: workload closures are immutable shared data
	spec.Timesteps = budget
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	// Walltime requests overestimate like real users do: estimate x [1.5, 3).
	safety := 1.5 + 1.5*rng.Float64()
	limit := sim.Duration(float64(estimateRuntime(&spec, nodes)) * safety)

	return &Job{
		ID:        i,
		App:       &spec,
		Nodes:     nodes,
		Timesteps: budget,
		Seed:      sim.StreamSeed(runSeedBase, uint64(i)),
		Arrival:   arrival,
		WallLimit: limit,
	}, nil
}

// eligibleNodeCounts filters an application's evaluated node counts to the
// facility's per-job cap.
func eligibleNodeCounts(s *apps.Spec, maxNodes int) []int {
	var out []int
	for _, n := range s.NodeCounts {
		if n <= maxNodes {
			out = append(out, n)
		}
	}
	return out
}

// estimateRuntime is the scheduler-side runtime estimate a user would put on
// a job script: per-step compute at the spec's achieved rate plus memory
// traffic at a nominal per-rank bandwidth share, plus a setup term for
// first-touching the working set. It is deliberately coarse — walltime
// requests only size reservations — but deterministic and monotone in the
// job's real cost, which is what backfill quality depends on.
func estimateRuntime(s *apps.Spec, nodes int) sim.Duration {
	const (
		nodeBandwidth  = 400e9 // MCDRAM-class stream bandwidth, bytes/s
		setupBandwidth = 30e9  // first-touch fault-and-zero bandwidth, bytes/s
	)
	perRankBW := nodeBandwidth / float64(s.RanksPerNode)
	compute := s.FlopsPerStep(nodes) / (s.EffGFlops * 1e9)
	memory := float64(s.MemTrafficPerStep(nodes)) / perRankBW
	step := (compute + memory) * 1.3 // slack for comm, heap and noise
	setup := float64(s.WorkingSetPerRank(nodes)) * float64(s.RanksPerNode) / setupBandwidth
	sec := float64(s.Timesteps)*step + setup
	d := sim.Duration(sec * float64(sim.Second))
	if d < sim.Millisecond {
		d = sim.Millisecond
	}
	return d
}
