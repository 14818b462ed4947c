// Command mkexperiments regenerates the paper's tables and figures.
//
// Usage:
//
//	mkexperiments                 # everything, full sweeps, 5 reps
//	mkexperiments -quick          # three node counts per app
//	mkexperiments -only fig5b     # a single artifact
//	mkexperiments -workers 1      # sequential fan-out (same output, slower)
//
// Artifacts, in print order, with their EXPERIMENTS.md ids: fig4 (E1),
// fig5a (E2), fig5b (E3), fig6a (E4), fig6b (E5), table1 (E6), ltp (E7),
// brktrace (E8), proxyopts (E9), ccsqcd-ddr (E10), corespec (E13),
// quadrant (E12), schedsweep (E16), resilience (E14), facility (E15),
// ablations (E11).
//
// Exit status: 0 on success, 1 when an experiment fails, 2 on a usage
// error (an unknown flag or artifact, or -json without schedsweep).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"mklite/internal/cliflags"
	"mklite/internal/experiments"
	"mklite/internal/fault"
	"mklite/internal/stats"
	"mklite/internal/trace"
)

// artifact is one paper artifact: its EXPERIMENTS.md id, its -only name,
// and run, which computes it and writes its section. Every section is
// followed by one blank line.
type artifact struct {
	id, name string
	run      runFunc
}

type runFunc func(w io.Writer, s *session) error

// session is what every artifact runs with: the experiment configuration,
// plus the -json path and the stream that reports the written file (both
// read by schedsweep only).
type session struct {
	cfg      experiments.Config
	jsonPath string
	stderr   io.Writer
}

// artifacts is every artifact in print order.
var artifacts = []artifact{
	{"E1", "fig4", runFig4},
	{"E2", "fig5a", figure(experiments.Figure5a, "Figure 5a: CCS-QCD, % of Linux median")},
	{"E3", "fig5b", figure(experiments.Figure5b, "Figure 5b: MiniFE scaling (Mflops)")},
	{"E4", "fig6a", figure(experiments.Figure6a, "Figure 6a: Lulesh 2.0 scaling (zones/s)")},
	{"E5", "fig6b", figure(experiments.Figure6b, "Figure 6b: LAMMPS scaling (timesteps/s)")},
	{"E6", "table1", runTableI},
	{"E7", "ltp", runLTP},
	{"E8", "brktrace", runBrkTrace},
	{"E9", "proxyopts", lines(experiments.ProxyOptions, func(r experiments.ProxyOptionResult) string {
		return fmt.Sprintf("%-9s %+.1f%% (%.4g -> %.4g)", r.App, r.GainPercent, r.BaselineFOM, r.OptimizedFOM)
	}, "Section IV: McKernel proxy options (premap + disable-sched-yield, 16 nodes)", "(paper: +9% AMG 2013, +2% MiniFE)")},
	{"E10", "ccsqcd-ddr", runCCSQCDDDR},
	{"E13", "corespec", lines(experiments.CoreSpecialization, func(r experiments.CoreSpecRow) string {
		return fmt.Sprintf("%-38s %10.4g (%.1f%%)", r.Config, r.FOM, r.Percent)
	}, "Section III-A: core specialisation (Lulesh, 1 node)", `(paper: "mOS using 64 or 66 cores beats Linux on 68 cores")`)},
	{"E12", "quadrant", lines(experiments.QuadrantComparison, func(r experiments.QuadrantRow) string {
		return fmt.Sprintf("%-36s %10.4g (%.1f%% of SNC-4 Linux)", r.Config, r.FOM, r.Percent)
	}, "Section III-B: clustering-mode trade-off (CCS-QCD, 64 nodes)")},
	{"E16", "schedsweep", runSchedSweep},
	{"E14", "resilience", figure(experiments.Resilience, "Resilience: one straggler poisons the allreduce (MiniFE)",
		"(fixed per-step detour on one node; slowdown grows as the job scales out)")},
	{"E15", "facility", runFacility},
	{"E11", "ablations", runAblations},
}

// artifactList renders the table as "fig4 (E1), fig5a (E2), ...".
func artifactList() string {
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = fmt.Sprintf("%s (%s)", a.name, a.id)
	}
	return strings.Join(names, ", ")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError is a command line mkexperiments cannot act on (exit 2).
type usageError string

func (e usageError) Error() string { return string(e) }

// errFlags is a flag-parse failure the flag package has already reported.
var errFlags = errors.New("bad flags")

func run(args []string, stdout, stderr io.Writer) int {
	var usage usageError
	switch err := runArgs(args, stdout, stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlags):
		return 2
	case errors.As(err, &usage):
		fmt.Fprintf(stderr, "mkexperiments: %s\nartifacts: %s\n", usage, artifactList())
		return 2
	default:
		fmt.Fprintln(stderr, "mkexperiments:", err)
		return 1
	}
}

func runArgs(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mkexperiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick    = fs.Bool("quick", false, "restrict sweeps to three node counts per app")
		reps     = fs.Int("reps", 5, "repetitions per data point")
		seed     = cliflags.Seed(fs)
		only     = fs.String("only", "", "comma-separated artifact subset: "+artifactList())
		workers  = cliflags.Workers(fs)
		counters = cliflags.Counters(fs)
		metricsF = cliflags.Metrics(fs)
		faults   = cliflags.Faults(fs)
		sloSpec  = cliflags.SLO(fs)
		schedF   = cliflags.Sched(fs)
		jsonOut  = fs.String("json", "", "write the schedsweep figures as byte-stable JSON to this file (schedsweep artifact only)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errFlags
	}
	if fs.NArg() > 0 {
		return usageError(fmt.Sprintf("unexpected arguments %q; select artifacts with -only", fs.Args()))
	}

	selected, err := selectArtifacts(*only)
	if err != nil {
		return err
	}
	if *jsonOut != "" && !slices.ContainsFunc(selected, named("schedsweep")) {
		return usageError("-json writes the schedsweep figures, but -only does not select schedsweep")
	}

	s := &session{
		cfg: experiments.Config{Reps: *reps, Seed: *seed, Quick: *quick, Workers: *workers,
			Counters: *counters, Metrics: *metricsF, SLO: *sloSpec},
		jsonPath: *jsonOut,
		stderr:   stderr,
	}
	if s.cfg.Faults, err = fault.ParsePlan(*faults); err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	if s.cfg.Sched, err = cliflags.ParseSched(*schedF); err != nil {
		return fmt.Errorf("-sched: %w", err)
	}
	if *sloSpec == "default" {
		s.cfg.SLO = experiments.DefaultFacilitySLO
	}
	for _, a := range selected {
		if err := a.run(stdout, s); err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// selectArtifacts resolves a -only list to table rows in print order; the
// empty list selects every artifact.
func selectArtifacts(only string) ([]artifact, error) {
	if only == "" {
		return artifacts, nil
	}
	names := strings.Split(only, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		if !slices.ContainsFunc(artifacts, named(names[i])) {
			return nil, usageError(fmt.Sprintf("unknown artifact %q", names[i]))
		}
	}
	var out []artifact
	for _, a := range artifacts {
		if slices.Contains(names, a.name) {
			out = append(out, a)
		}
	}
	return out, nil
}

func named(name string) func(artifact) bool {
	return func(a artifact) bool { return a.name == name }
}

// section writes a section header: the title between ==== rules, then one
// line per note.
func section(w io.Writer, title string, notes ...string) {
	fmt.Fprintf(w, "==== %s ====\n", title)
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
}

// printProvenance writes a figure's aggregated mechanism counters and
// metrics profile (set only under -counters and -metrics).
func printProvenance(w io.Writer, fig *stats.Figure) {
	if len(fig.Counters) > 0 {
		fmt.Fprintf(w, "mechanism counters across all %s runs:\n", fig.ID)
		fmt.Fprint(w, trace.FormatCounters(fig.Counters))
	}
	if fig.MetricsText != "" {
		fmt.Fprintf(w, "metrics profile across all %s runs:\n", fig.ID)
		fmt.Fprint(w, fig.MetricsText)
	}
}

// figure is the run of a one-figure artifact.
func figure(gen func(experiments.Config) (*stats.Figure, error), title string, notes ...string) runFunc {
	return func(w io.Writer, s *session) error {
		fig, err := gen(s.cfg)
		if err != nil {
			return err
		}
		section(w, title, notes...)
		fmt.Fprint(w, fig.Render())
		printProvenance(w, fig)
		return nil
	}
}

// lines is the run of an artifact that prints one line per result row.
func lines[T any](gen func(experiments.Config) ([]T, error), line func(T) string, title string, notes ...string) runFunc {
	return func(w io.Writer, s *session) error {
		rows, err := gen(s.cfg)
		if err != nil {
			return err
		}
		section(w, title, notes...)
		for _, r := range rows {
			fmt.Fprintln(w, line(r))
		}
		return nil
	}
}

func runFig4(w io.Writer, s *session) error {
	figs, err := experiments.Figure4(s.cfg)
	if err != nil {
		return err
	}
	section(w, "Figure 4: relative median performance vs Linux")
	for _, fig := range figs {
		fmt.Fprint(w, fig.Render())
		fmt.Fprint(w, experiments.RelativeFigure(fig).Render())
		printProvenance(w, fig)
		fmt.Fprintln(w)
	}
	sum := experiments.SummarizeFigure4(figs)
	fmt.Fprintf(w, "Cross-application summary: median improvement %.2fx (paper: 1.09x);"+
		" best %.2fx on %s/%s at %d nodes (paper: up to 3.8x)\n",
		sum.MedianImprovement, sum.BestImprovement, strings.TrimPrefix(sum.BestApp, "fig4-"),
		sum.BestKernel, sum.BestNodes)
	return nil
}

func runTableI(w io.Writer, s *session) error {
	_, tb, err := experiments.TableI(s.cfg)
	if err != nil {
		return err
	}
	section(w, "Table I: Lulesh in DDR4 with/without brk optimizations",
		"(paper: Linux 8,959 zones/s 100.0% | mOS heap off 106.6% | mOS regular 121.0%)")
	fmt.Fprint(w, tb.Render())
	return nil
}

func runLTP(w io.Writer, s *session) error {
	_, tb, err := experiments.LTPResultsWorkers(s.cfg.Workers)
	if err != nil {
		return err
	}
	section(w, "Section III-D: LTP syscall conformance", "(paper: McKernel fails 32, mOS fails 111 of 3,328)")
	fmt.Fprint(w, tb.Render())
	return nil
}

// runBrkTrace prints E8's two sections: the modelled per-rank trace, then
// the exact -s30 trace replayed call for call.
func runBrkTrace(w io.Writer, s *session) error {
	const paper = "7,526 queries / 3,028 grows / 1,499 shrinks; 87 MB peak; 22 GB cumulative)"
	err := lines(experiments.BrkTrace, func(tr experiments.BrkTraceResult) string {
		return fmt.Sprintf("%-9s %5d queries %5d grows %5d shrinks (%d calls); peak %d B; cumulative %d B; %d heap faults",
			tr.Kernel, tr.Queries, tr.Grows, tr.Shrinks, tr.Calls, tr.PeakBytes, tr.CumulativeBytes, tr.HeapFaults)
	}, "Section IV: Lulesh brk trace", "(paper, -s 30: "+paper)(w, s)
	if err != nil {
		return err
	}
	res, err := experiments.BrkTraceS30()
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	section(w, "Section IV: exact Lulesh -s30 brk trace replay (12,053 calls)", "(paper: "+paper)
	for _, r := range res {
		fmt.Fprintf(w, "%-9s %d calls; peak %.1f MiB; cumulative %.1f GiB; %d faults; %.2f GiB zeroed; kernel time %.1f ms\n",
			r.Kernel, r.Calls, float64(r.PeakBytes)/(1<<20), float64(r.CumulativeBytes)/(1<<30),
			r.HeapFaults, float64(r.ZeroedBytes)/(1<<30), r.KernelTimeSecs*1e3)
	}
	return nil
}

// runCCSQCDDDR is part of the Figure 5a discussion: McKernel with MCDRAM
// spill against McKernel pinned to DDR4, each the median of the repetitions.
func runCCSQCDDDR(w io.Writer, s *session) error {
	res, err := experiments.CCSQCDDDROnly(s.cfg)
	if err != nil {
		return err
	}
	section(w, "Section IV: CCS-QCD on McKernel, DDR4-only vs MCDRAM spill", "(paper: ~5% slowdown at 2,048 nodes)")
	fmt.Fprintf(w, "spill %.4g vs DDR-only %.4g: %.1f%% slowdown\n", res.SpillFOM, res.DDROnlyFOM, res.SlowdownPercent)
	return nil
}

func runSchedSweep(w io.Writer, s *session) error {
	figs, err := experiments.SchedSweep(s.cfg)
	if err != nil {
		return err
	}
	section(w, "Scheduler sweep: noise-gap % by policy x kernel x nodes",
		"(gang aligns noise windows, tickless drops the tick sources, rr pays its quantum timer)")
	for i, fig := range figs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprint(w, fig.Render())
	}
	if s.jsonPath == "" {
		return nil
	}
	out, err := marshalFigures(figs)
	if err != nil {
		return err
	}
	if err := os.WriteFile(s.jsonPath, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(s.stderr, "mkexperiments: wrote %s (%d bytes)\n", s.jsonPath, len(out))
	return nil
}

// marshalFigures is the -json encoding: indented figures, each point as
// {Nodes, Median, Min, Max}, with a trailing newline.
func marshalFigures(figs []*stats.Figure) ([]byte, error) {
	out, err := json.MarshalIndent(figs, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func runFacility(w io.Writer, s *session) error {
	cmp, err := experiments.Facility(s.cfg)
	if err != nil {
		return err
	}
	section(w, "Facility: kernel-selection policies at datacenter scale",
		"(same seeded job stream, same facility; only the per-job kernel choice differs)")
	fmt.Fprint(w, cmp.Rendered)
	return nil
}

func runAblations(w io.Writer, s *session) error {
	a, err := experiments.Ablations(s.cfg)
	if err != nil {
		return err
	}
	section(w, "Design-space ablations (section II claims)")
	fmt.Fprint(w, experiments.RenderAblations(a))
	return nil
}
