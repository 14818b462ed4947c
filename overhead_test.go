package mklite

// Overhead budgets: the layers that promise to cost (almost) nothing are
// timed against their own baseline on this machine and fail the benchmark
// when the promise breaks. Run all three with
//
//	go test -run '^$' -bench 'Overhead$' -benchtime=1x .
//
// Nothing is written to disk. End-to-end wall clock, allocation and
// per-layer CPU shares are the calibrated benchmark's job (bash
// bench/run.sh); these gates only compare two configurations of one
// workload, so absolute speed does not matter, only the ratio.
//
// One estimator serves every budget (pairOverhead): base and probe are
// timed in pairs whose within-pair order alternates, each slot is the
// minimum of three back-to-back runs, and the overhead is the median of
// the per-pair probe/base ratios, clamped at zero.
//
//   - Pairing cancels slow drift in machine load, since each probe run is
//     compared only with the base run next to it.
//   - Alternating the order cancels the second slot's warm-cache or
//     fresh-garbage advantage.
//   - The min-of-3 slot filters sub-second load transients.
//   - The median discards the pairs a multi-second load spike landed in.
//     A best-of difference would instead amplify one lucky GC-free window
//     on either side.
//
// A placebo (the identical configuration in both halves) held this
// estimator within ±1.5 percentage points at 40 pairs on a loaded CI
// runner. On a two-core host shared with other jobs it read up to ~10% at
// 9 pairs, so rerun a failure there before believing it. A negative
// overhead is noise, not a speedup, so it clamps to zero and cannot hide a
// later regression inside the slack.
//
// Test files are exempt from mklint, so reading the wall clock here does
// not break the nowalltime contract: the simulation itself never does.

import (
	"math"
	"slices"
	"testing"
	"time"

	"mklite/internal/experiments"
	"mklite/internal/fault"
	"mklite/internal/fleet"
	"mklite/internal/obs"
)

// pairOverhead is the overhead estimator: the upper median of the per-pair
// ratios probe[i]/base[i], as a percentage above 1, clamped at 0. base and
// probe must be the same non-zero length.
func pairOverhead(base, probe []float64) float64 {
	ratios := make([]float64, len(base))
	for i := range base {
		ratios[i] = probe[i] / base[i]
	}
	slices.Sort(ratios)
	return max((ratios[len(ratios)/2]-1)*100, 0)
}

// benchOverhead times base and probe in max(b.N, minPairs) alternating
// pairs of min-of-3 slots and fails b when pairOverhead exceeds budgetPct.
// minPairs floors the pair count because CI runs with -benchtime=1x.
func benchOverhead(b *testing.B, minPairs int, budgetPct float64, base, probe func()) {
	b.Helper()
	// No forced collection between runs: GC phase carries across runs, so
	// each mode's allocations earn their true fraction of collection cycles
	// instead of a full cycle charged to whichever side sits just past a
	// trigger boundary.
	slot := func(f func()) float64 {
		best := math.Inf(1)
		for range 3 {
			start := time.Now()
			f()
			best = min(best, time.Since(start).Seconds())
		}
		return best
	}
	n := max(b.N, minPairs)
	baseS, probeS := make([]float64, n), make([]float64, n)
	for i := range n {
		if i%2 == 0 {
			baseS[i] = slot(base)
			probeS[i] = slot(probe)
		} else {
			probeS[i] = slot(probe)
			baseS[i] = slot(base)
		}
	}
	pct := pairOverhead(baseS, probeS)
	b.ReportMetric(slices.Min(baseS), "base-s")
	b.ReportMetric(slices.Min(probeS), "probe-s")
	b.ReportMetric(pct, "overhead-%")
	if pct > budgetPct {
		b.Fatalf("overhead %.2f%% over %d pairs exceeds the %.0f%% budget", pct, n, budgetPct)
	}
}

// figure4Run returns a closure running one quick Figure 4 sweep at width 1
// with the given config tweak.
func figure4Run(b *testing.B, mutate func(*experiments.Config)) func() {
	b.Helper()
	cfg := benchCfg()
	cfg.Workers = 1
	if mutate != nil {
		mutate(&cfg)
	}
	return func() {
		figs, err := experiments.Figure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) != 8 {
			b.Fatal("figure count")
		}
	}
}

// BenchmarkCountersOverhead attaches a per-repetition counter sink to every
// run of the quick Figure 4 grid: at most 5%. The interned trace.Key fast
// path (dense-slice add, no map lookup, no allocation) replaced a map path
// that once cost +25% on this workload.
func BenchmarkCountersOverhead(b *testing.B) {
	benchOverhead(b, 5, 5,
		figure4Run(b, nil),
		figure4Run(b, func(cfg *experiments.Config) { cfg.Counters = true }))
}

// BenchmarkFaultsOffOverhead attaches an empty fault.Plan to every job of
// the quick Figure 4 grid against the no-plan baseline: at most 2%. An
// empty plan is the worst faults-off case, paying Empty()/Validate() plus
// the nil-injector fast path at every injection site. The outputs of the
// two are proven byte-identical by TestEmptyFaultPlanIsByteIdentical.
func BenchmarkFaultsOffOverhead(b *testing.B) {
	benchOverhead(b, 9, 2,
		figure4Run(b, nil),
		figure4Run(b, func(cfg *experiments.Config) { cfg.Faults = &fault.Plan{} }))
}

// BenchmarkObsOverhead runs the quick facility stream (64 nodes, 150 jobs,
// one policy, width 1) with every standing observability backend attached
// against the plain run: at most 2%. The off side is byte-invisible, which
// TestObsOffIsByteInvisible in internal/fleet pins. The pair floor is 40
// because the 2% budget needs the median inside the placebo's ±1.5 points.
func BenchmarkObsOverhead(b *testing.B) {
	run := func(on bool) func() {
		return func() {
			cfg := fleet.Config{
				Nodes:    64,
				Jobs:     150,
				Seed:     1,
				Workers:  1,
				Backfill: true,
				Share:    2,
				Counters: true,
			}
			pol, err := fleet.ParsePolicy("heuristic", cfg.Seed, cfg.Workers, nil)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Policy = pol
			if on {
				// A fresh timeline and decision log per run: per-run state,
				// like a trace sink.
				cfg.Observe = &obs.Options{
					Timeline:    obs.NewTimeline(cfg.Nodes, cfg.Share, 0),
					Decisions:   obs.NewDecisionLog(),
					JobCounters: true,
				}
				if cfg.SLO, err = obs.ParseSLO(experiments.DefaultFacilitySLO); err != nil {
					b.Fatal(err)
				}
			}
			res, err := fleet.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.Jobs != cfg.Jobs {
				b.Fatalf("run lost jobs: %d of %d", res.Jobs, cfg.Jobs)
			}
			if on && (cfg.Observe.Timeline.Open() != 0 || len(cfg.Observe.Decisions.Decisions()) != cfg.Jobs) {
				b.Fatal("observed run produced incomplete artifacts")
			}
		}
	}
	benchOverhead(b, 40, 2, run(false), run(true))
}

// TestPairOverhead checks the estimator on synthetic timings, so the gates
// above are known to be able to fail.
func TestPairOverhead(t *testing.T) {
	base := []float64{1.0, 0.9, 1.2, 1.1, 0.95, 1.05, 1.3}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, s := range base {
			out[i] = s * f
		}
		return out
	}
	if got := pairOverhead(base, base); got != 0 {
		t.Errorf("placebo: overhead = %v, want 0", got)
	}
	slow := scaled(1.1)
	if got := pairOverhead(base, slow); got < 10-1e-9 || got > 10+1e-9 {
		t.Errorf("uniform 10%% slowdown: overhead = %v, want 10", got)
	}
	slow[3] *= 50
	if got := pairOverhead(base, slow); got < 10-1e-9 || got > 10+1e-9 {
		t.Errorf("one outlier pair moved the median: overhead = %v, want 10", got)
	}
	if got := pairOverhead(base, scaled(0.8)); got != 0 {
		t.Errorf("negative overhead: got %v, want clamp to 0", got)
	}
}
