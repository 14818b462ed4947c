// Command mknoise measures OS interference with the FWQ (fixed work
// quanta) microbenchmark on each kernel's application-core noise profile —
// the property that strong partitioning exists to protect ("preventing OS
// jitter from Linux to be propagated to the LWK").
//
// Usage:
//
//	mknoise
//	mknoise -iters 20000 -seed 3
package main

import (
	"flag"
	"fmt"
	"maps"
	"slices"

	"mklite"
	"mklite/internal/cliflags"
)

func main() {
	var (
		iters    = flag.Int("iters", 10000, "FWQ/FTQ iterations")
		seed     = cliflags.Seed(flag.CommandLine)
		ftq      = flag.Bool("ftq", false, "also print the fixed-time-quanta utilisation of the same run")
		hist     = flag.Bool("hist", false, "print the FWQ sample distribution per kernel")
		counters = cliflags.Counters(flag.CommandLine)
		metricsF = cliflags.Metrics(flag.CommandLine)
	)
	flag.Parse()

	fmt.Printf("FWQ, 1 ms work quanta, %d iterations per kernel\n\n", *iters)
	fmt.Printf("%-10s %16s %18s\n", "kernel", "noise (mean %)", "max stretch (%)")
	samples := mklite.MeasureNoise(*seed, *iters)
	for _, s := range samples {
		fmt.Printf("%-10s %16.5f %18.3f\n", s.Kernel, s.NoisePercent, s.MaxStretchPercent)
	}
	if *ftq {
		fmt.Printf("\nFTQ, 1 ms windows, %d iterations per kernel\n\n", *iters)
		fmt.Printf("%-10s %18s %18s\n", "kernel", "mean utilisation", "worst window")
		for _, s := range samples {
			fmt.Printf("%-10s %18.6f %18.6f\n", s.Kernel, s.MeanUtilization, s.WorstWindow)
		}
	}
	if *counters {
		fmt.Println("\nPer-source detour attribution (seconds stolen over the whole run):")
		for _, k := range mklite.Kernels() {
			srcs, err := mklite.NoiseSourceBreakdown(k, *seed, *iters)
			if err != nil {
				fmt.Println("mknoise:", err)
				return
			}
			fmt.Printf("%-10s", k)
			if len(srcs) == 0 {
				fmt.Print(" (no detours)")
			}
			for _, name := range slices.Sorted(maps.Keys(srcs)) {
				fmt.Printf("  %s %.6f", name, srcs[name])
			}
			fmt.Println()
		}
	}
	if *metricsF {
		fmt.Println("\nFWQ detour distributions (ns, detoured iterations only; p99.9/p50 is the tail fingerprint):")
		fmt.Printf("%-10s %8s %10s %10s %10s %10s %10s %12s\n",
			"kernel", "detours", "p50", "p90", "p99", "p99.9", "max", "p99.9/p50")
		for _, d := range mklite.MeasureNoiseDistributions(*seed, 1e-3, *iters) {
			fmt.Printf("%-10s %8d %10.0f %10.0f %10.0f %10.0f %10d %11.1fx\n",
				d.Kernel, d.Count, d.P50Ns, d.P90Ns, d.P99Ns, d.P999Ns, d.MaxNs, d.TailRatio())
		}
	}
	if *hist {
		for _, k := range mklite.Kernels() {
			samples, err := mklite.NoiseSamplesMicros(k, *seed, *iters)
			if err != nil {
				fmt.Println("mknoise:", err)
				return
			}
			fmt.Printf("\n%s FWQ iteration-time distribution:\n", k)
			fmt.Print(mklite.RenderHistogram(samples, 10, "us"))
		}
	}
	fmt.Println("\nThe LWK profiles sit orders of magnitude below Linux: the absence of a")
	fmt.Println("heavy tail is what prevents collective amplification at scale (Fig. 5b).")
}
