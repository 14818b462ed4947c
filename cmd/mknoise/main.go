// Command mknoise measures OS interference with the FWQ (fixed work
// quanta) microbenchmark on each kernel's application-core noise profile —
// the property that strong partitioning exists to protect ("preventing OS
// jitter from Linux to be propagated to the LWK"). Every section it prints
// describes the same run: one FWQ run per kernel.
//
// Usage:
//
//	mknoise
//	mknoise -iters 20000 -seed 3
//	mknoise -ftq -counters -metrics -hist
//
// Exit status: 0 on success, 2 on a usage error (a bad flag, -iters below
// 1 or a positional argument).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"mklite"
	"mklite/internal/cliflags"
	"mklite/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mknoise", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		iters    = fs.Int("iters", 10000, "FWQ/FTQ iterations per kernel (at least 1)")
		seed     = cliflags.Seed(fs)
		ftq      = fs.Bool("ftq", false, "also print the fixed-time-quanta utilisation of the same run")
		hist     = fs.Bool("hist", false, "print the FWQ sample distribution per kernel")
		counters = cliflags.Counters(fs)
		metricsF = cliflags.Metrics(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "mknoise:", msg)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		return usage(fmt.Sprintf("unexpected arguments %q", fs.Args()))
	}
	if *iters < 1 {
		return usage(fmt.Sprintf("-iters %d: want at least 1", *iters))
	}

	samples := mklite.MeasureNoise(*seed, *iters)
	fmt.Fprintf(stdout, "FWQ, 1 ms work quanta, %d iterations per kernel\n\n", *iters)
	fmt.Fprintf(stdout, "%-10s %16s %18s\n", "kernel", "noise (mean %)", "max stretch (%)")
	for _, s := range samples {
		fmt.Fprintf(stdout, "%-10s %16.5f %18.3f\n", s.Kernel, s.NoisePercent, s.MaxStretchPercent)
	}
	if *ftq {
		fmt.Fprintf(stdout, "\nFTQ, 1 ms windows, %d iterations per kernel\n\n", *iters)
		fmt.Fprintf(stdout, "%-10s %18s %18s\n", "kernel", "mean utilisation", "worst window")
		for _, s := range samples {
			fmt.Fprintf(stdout, "%-10s %18.6f %18.6f\n", s.Kernel, s.MeanUtilization, s.WorstWindow)
		}
	}
	if *counters {
		fmt.Fprintln(stdout, "\nPer-source detour attribution (seconds stolen over the whole run):")
		for _, s := range samples {
			fmt.Fprintf(stdout, "%-10s", s.Kernel)
			if len(s.Sources) == 0 {
				fmt.Fprint(stdout, " (no detours)")
			}
			for _, name := range slices.Sorted(maps.Keys(s.Sources)) {
				fmt.Fprintf(stdout, "  %s %.6f", name, s.Sources[name])
			}
			fmt.Fprintln(stdout)
		}
	}
	if *metricsF {
		fmt.Fprintln(stdout, "\nFWQ detour distributions (ns, detoured iterations only; p99.9/p50 is the tail fingerprint):")
		fmt.Fprintf(stdout, "%-10s %8s %10s %10s %10s %10s %10s %12s\n",
			"kernel", "detours", "p50", "p90", "p99", "p99.9", "max", "p99.9/p50")
		for _, s := range samples {
			fmt.Fprintf(stdout, "%-10s %8d %10.0f %10.0f %10.0f %10.0f %10d %11.1fx\n",
				s.Kernel, s.Detours, s.P50Ns, s.P90Ns, s.P99Ns, s.P999Ns, s.MaxNs, s.TailRatio())
		}
	}
	if *hist {
		for _, s := range samples {
			fmt.Fprintf(stdout, "\n%s FWQ iteration-time distribution:\n", s.Kernel)
			fmt.Fprint(stdout, stats.NewHistogram(s.Samples, 10).Render("us"))
		}
	}
	fmt.Fprintln(stdout, "\nThe LWK profiles sit orders of magnitude below Linux: the absence of a")
	fmt.Fprintln(stdout, "heavy tail is what prevents collective amplification at scale (Fig. 5b).")
	return 0
}
