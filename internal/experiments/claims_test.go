package experiments

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/fleet"
	"mklite/internal/kernel"
	"mklite/internal/ltp"
	"mklite/internal/sim"
	"mklite/internal/stats"
)

var claimSeeds = flag.Int("claims.seeds", 1, "TestPaperClaims checks and logs seeds 1..N")

// claimRuns holds one seed's experiment outputs at the benchmark's scale:
// the full Figure 4 sweep and the scheduler sweep at 5 repetitions, the four
// single-application figures, four quick facility streams, Table I at 5
// repetitions and the LTP reports.
type claimRuns struct {
	fig4         []*stats.Figure
	fig5a, fig5b *stats.Figure
	fig6a, fig6b *stats.Figure
	sched        []*stats.Figure
	facility     [][]*fleet.Result
	tableI       []TableIRow
	ltp          map[string]ltp.Report // by kernel
}

func runClaims(seed uint64) (*claimRuns, error) {
	cfg := Config{Reps: 5, Seed: seed}
	var r claimRuns
	var err error
	if r.fig4, err = Figure4(cfg); err != nil {
		return nil, err
	}
	for _, f := range []struct {
		fn  func(Config) (*stats.Figure, error)
		dst **stats.Figure
	}{{Figure5a, &r.fig5a}, {Figure5b, &r.fig5b}, {Figure6a, &r.fig6a}, {Figure6b, &r.fig6b}} {
		if *f.dst, err = f.fn(cfg); err != nil {
			return nil, err
		}
	}
	if r.sched, err = SchedSweep(cfg); err != nil {
		return nil, err
	}
	for k := range uint64(4) {
		fc := Config{Reps: 5, Seed: sim.StreamSeed(seed, k), Quick: true, SLO: DefaultFacilitySLO}
		cmp, err := Facility(fc)
		if err != nil {
			return nil, err
		}
		r.facility = append(r.facility, cmp.Results)
	}
	if r.tableI, _, err = TableI(cfg); err != nil {
		return nil, err
	}
	reports, _, err := LTPResultsWorkers(0)
	if err != nil {
		return nil, err
	}
	r.ltp = map[string]ltp.Report{}
	for _, rep := range reports {
		r.ltp[rep.Kernel] = rep
	}
	return &r, nil
}

// A claim's margin is its relative slack: measured/bound − 1 for a lower
// bound, bound/measured − 1 for an upper bound, and the smaller of the two
// for a band. It is positive when the measurement is strictly inside the
// bound (the table requires that), and reads as how far the measurement
// could move before the claim breaks.
func atLeast(x, bound float64) float64 { return x/bound - 1 }
func below(x, bound float64) float64   { return bound/x - 1 }
func within(x, lo, hi float64) float64 { return min(atLeast(x, lo), below(x, hi)) }

// exactly is the margin of an exact count: one count relative to the
// claimed count (the smallest move that breaks the claim) when it holds,
// and minus the miss in the same unit when it does not.
func exactly(x, want float64) float64 {
	if x != want {
		return -math.Abs(x-want) / max(want, 1)
	}
	return 1 / max(want, 1)
}

// median returns one series' median at a node count (NaN when absent, which
// fails every claim).
func median(f *stats.Figure, series string, nodes int) float64 {
	if f == nil || f.Get(series) == nil {
		return math.NaN()
	}
	p, ok := f.Get(series).At(nodes)
	if !ok {
		return math.NaN()
	}
	return p.Median
}

// vsLinux returns one series' median over Linux's at a node count.
func vsLinux(f *stats.Figure, series string, nodes int) float64 {
	return median(f, series, nodes) / median(f, "Linux", nodes)
}

func figure(figs []*stats.Figure, id string) *stats.Figure {
	for _, f := range figs {
		if f.ID == id {
			return f
		}
	}
	return nil
}

func topNodes(f *stats.Figure) int {
	if f == nil || len(f.Series) == 0 {
		return 0
	}
	nodes := f.Series[0].NodeCounts()
	return nodes[len(nodes)-1]
}

// paperClaim is one row of EXPERIMENTS.md that the noise model carries.
// margin returns the measured value and the margin (see atLeast).
type paperClaim struct {
	row    string // EXPERIMENTS.md section
	claim  string
	margin func(r *claimRuns) (measured, margin float64)
}

// whoWins is E1's per-application verdict at the sweep's top node count:
// both LWKs ahead of Linux, or for LAMMPS Linux ahead of both.
func whoWins(app string, linuxWins bool) paperClaim {
	verdict := "both LWKs ahead of Linux"
	if linuxWins {
		verdict = "Linux ahead of both LWKs"
	}
	return paperClaim{"E1 (Figure 4)", app + ": " + verdict + " at the top node count", func(r *claimRuns) (float64, float64) {
		f := figure(r.fig4, "fig4-"+app)
		n := topNodes(f)
		lin := median(f, "Linux", n)
		mck, mos := median(f, "McKernel", n)/lin, median(f, "mOS", n)/lin
		if linuxWins {
			worst := max(mck, mos)
			return worst, below(worst, 1)
		}
		worst := min(mck, mos)
		return worst, atLeast(worst, 1)
	}}
}

// ltpFailures is E7's claim for one kernel: exactly want of the 3,328 LTP
// cases fail.
func ltpFailures(kern string, want int) paperClaim {
	return paperClaim{"E7 (Section III-D, LTP)", fmt.Sprintf("%s fails exactly %d LTP cases", kern, want), func(r *claimRuns) (float64, float64) {
		x := float64(r.ltp[kern].Failed)
		return x, exactly(x, float64(want))
	}}
}

// tableIRatio is one of E6's ratios: Table I row num over row den (0 Linux,
// 1 mOS without heap management, 2 mOS with regular heap management) in
// (lo, hi).
func tableIRatio(claim string, num, den int, lo, hi float64) paperClaim {
	return paperClaim{"E6 (Table I)", claim, func(r *claimRuns) (float64, float64) {
		x := r.tableI[num].ZonesPS / r.tableI[den].ZonesPS
		return x, within(x, lo, hi)
	}}
}

// paperClaims are the paper's shape claims, with the bounds the
// benchmark's checks and the per-figure tests assert. Every shape bound has
// a row here; the quick-scale and single-seed tests that still repeat some
// of them are listed in ROADMAP.md for deletion.
func paperClaims() []paperClaim {
	claims := []paperClaim{
		{"Headline (abstract / Fig. 4)", "median LWK/Linux over all apps and scales in (1.0, 1.3)", func(r *claimRuns) (float64, float64) {
			m := SummarizeFigure4(r.fig4).MedianImprovement
			return m, within(m, 1.0, 1.3)
		}},
		{"Headline (abstract / Fig. 4)", "best LWK/Linux in [2, 12], on MiniFE", func(r *claimRuns) (float64, float64) {
			s := SummarizeFigure4(r.fig4)
			if !strings.Contains(s.BestApp, "minife") {
				return s.BestImprovement, -1
			}
			return s.BestImprovement, within(s.BestImprovement, 2, 12)
		}},
	}
	for _, app := range apps.All() {
		claims = append(claims, whoWins(app.Name, app.Name == apps.LAMMPS().Name))
	}
	return append(claims,
		paperClaim{"E2 (Figure 5a)", "McKernel % of Linux >= 105 at the first node count, <= 160 at the last, and growing", func(r *claimRuns) (float64, float64) {
			return shape5a(r.fig5a, "McKernel", 105, 160)
		}},
		paperClaim{"E2 (Figure 5a)", "mOS % of Linux >= 100 at the first node count, <= 150 at the last, and growing", func(r *claimRuns) (float64, float64) {
			return shape5a(r.fig5a, "mOS", 100, 150)
		}},
		paperClaim{"E2 (Figure 5a)", "McKernel ahead of mOS at the top node count", func(r *claimRuns) (float64, float64) {
			n := topNodes(r.fig5a)
			x := median(r.fig5a, "McKernel", n) / median(r.fig5a, "mOS", n)
			return x, atLeast(x, 1)
		}},
		paperClaim{"E3 (Figure 5b)", "MiniFE McKernel/Linux at 1,024 nodes >= 5", func(r *claimRuns) (float64, float64) {
			x := median(r.fig5b, "McKernel", 1024) / median(r.fig5b, "Linux", 1024)
			return x, atLeast(x, 5)
		}},
		paperClaim{"E3 (Figure 5b)", "MiniFE McKernel/Linux at the top node count >= 4", func(r *claimRuns) (float64, float64) {
			n := topNodes(r.fig5b)
			x := median(r.fig5b, "McKernel", n) / median(r.fig5b, "Linux", n)
			return x, atLeast(x, 4)
		}},
		paperClaim{"E3 (Figure 5b)", "Linux's first-to-last scaling gain below McKernel's", func(r *claimRuns) (float64, float64) {
			gain := func(s string) float64 {
				n := r.fig5b.Get(s).NodeCounts()
				return median(r.fig5b, s, n[len(n)-1]) / median(r.fig5b, s, n[0])
			}
			x := gain("McKernel") / gain("Linux")
			return x, atLeast(x, 1)
		}},
		paperClaim{"E3 (Figure 5b)", "MiniFE McKernel/Linux at 1,024 nodes <= 12", func(r *claimRuns) (float64, float64) {
			x := vsLinux(r.fig5b, "McKernel", 1024)
			return x, below(x, 12)
		}},
		paperClaim{"E3 (Figure 5b)", "MiniFE McKernel/Linux grows from 16 to 256 to 1,024 nodes", func(r *claimRuns) (float64, float64) {
			small, mid, big := vsLinux(r.fig5b, "McKernel", 16), vsLinux(r.fig5b, "McKernel", 256), vsLinux(r.fig5b, "McKernel", 1024)
			x := min(mid/small, big/mid)
			return x, atLeast(x, 1)
		}},
		paperClaim{"E4 (Figure 6a)", "both LWKs ahead of Linux beyond one node, McKernel/Linux in [1.05, 1.8]", func(r *claimRuns) (float64, float64) {
			worst, worstX := math.Inf(1), math.NaN()
			for _, n := range r.fig6a.Get("McKernel").NodeCounts()[1:] {
				lin := median(r.fig6a, "Linux", n)
				mck := median(r.fig6a, "McKernel", n) / lin
				if m := min(within(mck, 1.05, 1.8), atLeast(median(r.fig6a, "mOS", n)/lin, 1)); m < worst {
					worst, worstX = m, mck
				}
			}
			return worstX, worst
		}},
		paperClaim{"E5 (Figure 6b)", "single node: McKernel >= 0.99 x Linux", func(r *claimRuns) (float64, float64) {
			n := r.fig6b.Get("McKernel").NodeCounts()[0]
			x := median(r.fig6b, "McKernel", n) / median(r.fig6b, "Linux", n)
			return x, atLeast(x, 0.99)
		}},
		paperClaim{"E5 (Figure 6b)", "LAMMPS at 1,024 nodes: Linux ahead of McKernel", func(r *claimRuns) (float64, float64) {
			x := vsLinux(r.fig6b, "McKernel", 1024)
			return x, below(x, 1)
		}},
		paperClaim{"E6 (Table I)", "three rows, the Linux row at 100%", func(r *claimRuns) (float64, float64) {
			n := float64(len(r.tableI))
			if n == 0 || r.tableI[0].Percent != 100 {
				return n, -1
			}
			return n, exactly(n, 3)
		}},
		tableIRatio("mOS without heap management / Linux in (1.00, 1.15)", 1, 0, 1, 1.15),
		tableIRatio("mOS regular heap / mOS without heap management > 1", 2, 1, 1, math.Inf(1)),
		tableIRatio("mOS regular heap / Linux in (1.10, 1.35)", 2, 0, 1.10, 1.35),
		ltpFailures("linux", 0),
		ltpFailures("mckernel", 32),
		ltpFailures("mos", 111),
		paperClaim{"E7 (Section III-D, LTP)", "linux, mckernel and mos each run exactly 3,328 LTP cases", func(r *claimRuns) (float64, float64) {
			worst, worstX := math.Inf(1), math.NaN()
			for _, kern := range []string{"linux", "mckernel", "mos"} {
				x := float64(r.ltp[kern].Total)
				if m := exactly(x, 3328); m < worst {
					worst, worstX = m, x
				}
			}
			return worstX, worst
		}},
		paperClaim{"E16 (scheduler sweep)", "SchedSeparation(MiniFE, Linux, 2,048 nodes) >= 2 pp", func(r *claimRuns) (float64, float64) {
			pp, ok := SchedSeparation(figure(r.sched, "schedsweep-minife"), kernel.TypeLinux, 2048)
			if !ok {
				return math.NaN(), math.NaN()
			}
			return pp, atLeast(pp, 2)
		}},
		paperClaim{"E16 (scheduler sweep)", "MiniFE at 2,048 nodes: Linux/gang noise gap below Linux/cfs", func(r *claimRuns) (float64, float64) {
			f := figure(r.sched, "schedsweep-minife")
			gang, cfs := median(f, "Linux/gang", 2048), median(f, "Linux/cfs", 2048)
			return gang, below(gang, cfs)
		}},
		paperClaim{"E16 (scheduler sweep)", "McKernel/coop noise gap < 1% at every node count", func(r *claimRuns) (float64, float64) {
			worst := 0.0
			for _, f := range r.sched {
				s := f.Get("McKernel/coop")
				if s == nil {
					return math.NaN(), math.NaN()
				}
				for _, p := range s.Points {
					worst = max(worst, p.Median)
				}
			}
			return worst, below(worst, 1)
		}},
		paperClaim{"E15 (facility)", "specialize jobs/h >= 1.05 x fixed-linux in every quick stream", func(r *claimRuns) (float64, float64) {
			worst, worstX := math.Inf(1), math.NaN()
			for _, legs := range r.facility {
				perHour := map[string]float64{}
				for _, res := range legs {
					perHour[res.Policy] = res.JobsPerHour
				}
				x := perHour["specialize"] / perHour["fixed-linux"]
				if m := atLeast(x, 1.05); m < worst {
					worst, worstX = m, x
				}
			}
			return worstX, worst
		}},
	)
}

// shape5a checks a Figure 5a series: at least lo at its first node count, at
// most hi at its last, and rising from first to last.
func shape5a(f *stats.Figure, series string, lo, hi float64) (float64, float64) {
	s := f.Get(series)
	first, last := s.Points[0].Median, s.Points[len(s.Points)-1].Median
	return last, min(atLeast(first, lo), below(last, hi), atLeast(last, first))
}

// TestPaperClaims checks the paper's shapes in one table,
// keyed to EXPERIMENTS.md, at the benchmark's scale, and logs each claim's
// measured value and margin. It runs seed 1; -claims.seeds=N runs seeds
// 1..N and logs each claim's smallest and median margin over them:
//
//	go test ./internal/experiments -run TestPaperClaims -v -claims.seeds=10
func TestPaperClaims(t *testing.T) {
	claims := paperClaims()
	margins := make([][]float64, len(claims))
	for seed := uint64(1); seed <= uint64(*claimSeeds); seed++ {
		r, err := runClaims(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range claims {
			x, m := c.margin(r)
			margins[i] = append(margins[i], m)
			t.Logf("seed %2d  %-28s %-85s measured %8.4f  margin %+8.2f%%", seed, c.row, c.claim, x, 100*m)
			if !(m > 0) {
				t.Errorf("seed %d: %s: %s fails (measured %.4f, margin %+.1f%%)", seed, c.row, c.claim, x, 100*m)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "margins over seeds 1-%d (smallest, median):\n", *claimSeeds)
	for i, c := range claims {
		ms := margins[i]
		slices.Sort(ms)
		fmt.Fprintf(&b, "  %-28s %-85s %+8.2f%% %+8.2f%%\n", c.row, c.claim, 100*ms[0], 100*stats.Median(ms))
	}
	t.Log(b.String())
}
