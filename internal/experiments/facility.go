package experiments

import (
	"fmt"

	"mklite/internal/cluster"
	"mklite/internal/fleet"
	"mklite/internal/obs"
	"mklite/internal/stats"
)

// DefaultFacilitySLO is the facility experiment's stock service-level
// objective: every policy leg must keep the facility at least half
// utilized, drain the stream without degraded jobs, and hold the p99 queue
// wait under two simulated hours. The thresholds are deliberately loose —
// they describe a functioning facility, not a winning policy — so all five
// comparison legs pass and the watchdog flags harness regressions rather
// than policy differences.
const DefaultFacilitySLO = "utilization_pct>=50;degraded_jobs<=0;wait_p99_sec<=7200"

// FacilityPolicies are the kernel-selection policies the facility experiment
// compares, in report order: the three fixed single-kernel facilities
// everyone operates today, the static profile heuristic, and the MultiK-style
// measured specialization.
func FacilityPolicies() []string {
	return []string{"fixed-linux", "fixed-mckernel", "fixed-mos", "heuristic", "specialize"}
}

// FacilityComparison is the facility experiment's outcome: one fleet result
// per policy (FacilityPolicies order) plus the rendered comparison table.
type FacilityComparison struct {
	Results  []*fleet.Result
	Rendered string
}

// FacilityConfig maps the experiment knobs onto a fleet configuration: a
// 256-node facility absorbing a 1,000-job stream (64 nodes / 150 jobs under
// Quick), two-way node sharing with the default co-tenancy interference
// template, and conservative backfill. The arrival rate scales with facility
// capacity (the full facility has 4x the quick slot count, so arrivals come
// 4x as fast) to keep the offered load — and with it a real queue, so the
// wait quantiles and backfill counts measure something — comparable across
// the two scales. Every leg copied from the config shares its node image
// store (cluster.Images), so the five legs and the specialize calibration
// prepare each node image once. The policy is filled per comparison leg.
func FacilityConfig(cfg Config) fleet.Config {
	fc := fleet.Config{
		Nodes:       256,
		Jobs:        1000,
		Seed:        cfg.Seed,
		Workers:     cfg.Workers,
		Backfill:    true,
		Share:       2,
		ArrivalMean: fleet.DefaultArrivalMean / 4,
		Counters:    cfg.Counters,
		Images:      cluster.NewImages(),
	}
	if cfg.Quick {
		fc.Nodes = 64
		fc.Jobs = 150
		fc.ArrivalMean = fleet.DefaultArrivalMean
	}
	return fc
}

// Facility runs the facility-scale policy comparison: the same seeded
// job stream scheduled onto the same facility under every kernel-selection
// policy, reporting jobs-per-hour, utilization and queue-wait quantiles per
// policy. The job stream, arrival process and per-job seeds are identical
// across legs — only the kernel choice (and through it each job's runtime
// and the schedule it induces) differs, so the comparison isolates the
// policy itself.
func Facility(cfg Config) (*FacilityComparison, error) {
	cfg = cfg.normalize()
	base := FacilityConfig(cfg)

	// An SLO spec turns each leg's result into a watchdog verdict and adds
	// an "slo" column; the empty spec leaves the rendered table — and the
	// result JSON — byte-identical to the pre-observability experiment.
	var slo *obs.SLO
	if cfg.SLO != "" {
		var err error
		if slo, err = obs.ParseSLO(cfg.SLO); err != nil {
			return nil, fmt.Errorf("experiments: facility: %w", err)
		}
	}

	cmp := &FacilityComparison{}
	for _, name := range FacilityPolicies() {
		pol, err := fleet.ParsePolicy(name, base.Seed, base.Workers, base.Interference)
		if err != nil {
			return nil, err
		}
		fc := base
		fc.Policy = pol
		fc.SLO = slo
		res, err := fleet.Run(fc)
		if err != nil {
			return nil, fmt.Errorf("experiments: facility %s: %w", name, err)
		}
		cmp.Results = append(cmp.Results, res)
	}

	header := []string{"policy", "jobs/h", "util %", "wait p50 s", "wait p99 s", "backfilled", "interfered", "kernels"}
	if slo != nil {
		header = append(header, "slo")
	}
	tbl := stats.NewTable(header...)
	for _, r := range cmp.Results {
		format := "%s|%.1f|%.1f|%.3f|%.3f|%d|%d|%s"
		cells := []any{r.Policy, r.JobsPerHour, r.UtilizationPct, r.WaitP50Sec,
			r.WaitP99Sec, r.Backfilled, r.Interfered, kernelMix(r)}
		if slo != nil {
			verdict := "PASS"
			if r.SLO == nil || !r.SLO.Passed {
				verdict = "FAIL"
			}
			format += "|%s"
			cells = append(cells, verdict)
		}
		tbl.AddRowf(format, cells...)
	}
	cmp.Rendered = tbl.Render()
	return cmp, nil
}

// kernelMix formats a result's per-kernel job counts compactly,
// deterministically ordered.
func kernelMix(r *fleet.Result) string {
	out := ""
	for _, k := range []string{"Linux", "McKernel", "mOS"} {
		if n := r.KernelJobs[k]; n > 0 {
			if out != "" {
				out += " "
			}
			out += fmt.Sprintf("%s:%d", k, n)
		}
	}
	return out
}
