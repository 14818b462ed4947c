// Command mkrun executes one application benchmark on one kernel
// configuration and prints the figure of merit with a mechanism breakdown.
//
// It is also where a run's observability artifacts are recorded:
// -trace-json (mklite-trace/v1), -counters-json (mklite-counters/v1) and
// -metrics-json (mklite-metrics/v1), which mkobs then validates, diffs,
// renders and folds into flame graphs (see docs/OBSERVABILITY.md).
//
// Usage:
//
//	mkrun -app minife -kernel mckernel -nodes 1024
//	mkrun -app lulesh2.0 -compare -nodes 64
//	mkrun -app ccs-qcd -kernel mckernel -nodes 2048 -ddr-only
//	mkrun -app minife -nodes 16 -trace-json t.json -counters-json c.json -metrics-json m.json
//
// Exit status: 0 on success, 1 on a failed run, 2 on a usage error (a bad
// flag or a positional argument).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime/pprof"
	"slices"
	"strings"

	"mklite"
	"mklite/internal/cliflags"
	"mklite/internal/fault"
	"mklite/internal/trace"
)

func main() {
	var (
		appName   = flag.String("app", "minife", "application to run (see -list)")
		kernelStr = flag.String("kernel", "mckernel", "kernel: linux, mckernel or mos")
		nodes     = flag.Int("nodes", 64, "node count")
		seed      = cliflags.Seed(flag.CommandLine)
		compare   = flag.Bool("compare", false, "run all three kernels and compare")
		ddrOnly   = flag.Bool("ddr-only", false, "pin all memory to DDR4")
		premap    = flag.Bool("mpol-shm-premap", false, "McKernel: premap MPI shared-memory windows")
		noYield   = flag.Bool("disable-sched-yield", false, "McKernel: hijack sched_yield into a no-op")
		usFabric  = flag.Bool("userspace-fabric", false, "use a fabric with no syscalls on the message path")
		quadrant  = flag.Bool("quadrant", false, "run nodes in quadrant mode instead of SNC-4")
		schedF    = cliflags.Sched(flag.CommandLine)
		jsonOut   = flag.Bool("json", false, "emit results as JSON")
		sweep     = flag.Bool("sweep", false, "sweep the app's full node-count list")
		steps     = flag.Bool("trace", false, "print a per-timestep breakdown (first 12 steps)")
		counters  = cliflags.Counters(flag.CommandLine)
		countersJ = flag.String("counters-json", "", "write the run's mklite-counters/v1 JSON dump to this file (implies -counters)")
		metricsF  = cliflags.Metrics(flag.CommandLine)
		metricsJ  = flag.String("metrics-json", "", "write the run's mklite-metrics/v1 JSON report to this file (implies -metrics)")
		traceOut  = flag.String("trace-json", "", "write the run's mklite-trace/v1 Chrome trace-event JSON to this file")
		cpuprof   = flag.String("cpuprofile", "", "write a Go CPU profile of the simulator itself to this file (wall clock, not virtual time)")
		faults    = cliflags.Faults(flag.CommandLine)
		list      = flag.Bool("list", false, "list applications and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mkrun: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	if *list {
		for _, a := range mklite.Apps() {
			fmt.Printf("%-10s %3d ranks/node x %2d threads  %-14s %s\n",
				a.Name, a.RanksPerNode, a.ThreadsPerRank, "["+a.Unit+"]", a.Desc)
		}
		return
	}

	opts := &mklite.Options{
		ForceDDROnly:      *ddrOnly,
		MpolShmPremap:     *premap,
		DisableSchedYield: *noYield,
		UserSpaceFabric:   *usFabric,
		Quadrant:          *quadrant,
		Sched:             *schedF,
		Observe: mklite.Observe{
			Trace:    *steps,
			Counters: *counters || *countersJ != "",
			Metrics:  *metricsF || *metricsJ != "",
			Events:   *traceOut != "",
		},
	}
	if *faults != "" {
		plan, err := fault.ParsePlan(*faults)
		if err != nil {
			fatal(err)
		}
		opts.Faults = plan
	}

	if *sweep {
		counts, err := mklite.AppNodeCounts(*appName)
		if err != nil {
			fatal(err)
		}
		var all []mklite.Result
		for _, n := range counts {
			results, err := mklite.Compare(*appName, n, *seed, opts)
			if err != nil {
				fatal(err)
			}
			all = append(all, results...)
			if !*jsonOut {
				linux := results[0].FOM
				fmt.Printf("%6d nodes:", n)
				for _, r := range results {
					fmt.Printf("  %s %.4g (%.2fx)", r.Kernel, r.FOM, r.FOM/linux)
				}
				fmt.Println()
			}
		}
		if *jsonOut {
			emitJSON(all)
		}
		return
	}

	if *compare {
		results, err := mklite.Compare(*appName, *nodes, *seed, opts)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(results)
			return
		}
		linux := results[0].FOM
		for _, r := range results {
			fmt.Printf("%-9s %12.4g %-14s (%.2fx Linux)  elapsed %.4gs\n",
				r.Kernel, r.FOM, r.Unit, r.FOM/linux, r.ElapsedSeconds)
		}
		return
	}

	k, err := mklite.ParseKernel(*kernelStr)
	if err != nil {
		fatal(err)
	}
	r, err := mklite.Run(*appName, k, *nodes, *seed, opts)
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		// Never ship a trace mkobs validate would reject.
		if err := trace.Validate(r.TraceJSON); err != nil {
			fatal(fmt.Errorf("internal error: emitted trace fails validation: %w", err))
		}
		writeArtifact(*traceOut, r.TraceJSON)
	}
	if *countersJ != "" {
		ctrs := trace.NewCounters()
		ctrs.MergeMap(r.Counters)
		var buf bytes.Buffer
		if err := ctrs.WriteJSON(&buf); err != nil {
			fatal(err)
		}
		writeArtifact(*countersJ, buf.Bytes())
	}
	if *metricsJ != "" {
		writeArtifact(*metricsJ, r.MetricsJSON)
	}
	if *jsonOut {
		emitJSON(r)
		return
	}
	fmt.Printf("%s on %s, %d nodes (%d ranks)\n", r.App, r.Kernel, r.Nodes, r.Ranks)
	fmt.Printf("  FOM:     %.6g %s\n", r.FOM, r.Unit)
	fmt.Printf("  elapsed: %.6g s (timed phase)\n", r.ElapsedSeconds)
	fmt.Println("  breakdown:")
	for _, k := range slices.Sorted(maps.Keys(r.Breakdown)) {
		fmt.Printf("    %-10s %10.6f s (%5.1f%%)\n", k, r.Breakdown[k],
			r.Breakdown[k]/r.ElapsedSeconds*100)
	}
	if r.HeapGrows > 0 {
		fmt.Printf("  heap: %d queries, %d grows, %d shrinks; peak %d B, cumulative %d B, %d faults\n",
			r.HeapQueries, r.HeapGrows, r.HeapShrinks, r.HeapPeakBytes, r.HeapGrownBytes, r.HeapFaults)
	}
	fmt.Printf("  MCDRAM residency: %d bytes; demand-paged ranks: %d\n", r.MCDRAMBytes, r.DemandRanks)
	if r.Retries > 0 || r.Degraded {
		fmt.Printf("  resilience: %d retries, %.4gs recovery", r.Retries, r.RecoverySeconds)
		if r.Degraded {
			fmt.Printf(", degraded (-%d nodes)", r.LostNodes)
		}
		fmt.Println()
	}
	if opts.Observe.Counters && len(r.Counters) > 0 {
		fmt.Println("  mechanism counters:")
		for line := range strings.Lines(mklite.FormatCounters(r.Counters)) {
			fmt.Print("    ", line)
		}
	}
	if opts.Observe.Metrics && r.MetricsText != "" {
		fmt.Println("  metrics profile:")
		for line := range strings.Lines(r.MetricsText) {
			fmt.Print("    ", line)
		}
	}
	if *steps && len(r.StepTrace) > 0 {
		fmt.Println("  per-step trace (ms):")
		fmt.Printf("    %4s %9s %9s %9s %9s %9s %9s %9s\n",
			"step", "compute", "memory", "heap", "syscall", "sched", "comm", "noise")
		for i, s := range r.StepTrace {
			if i >= 12 {
				fmt.Printf("    ... %d more steps\n", len(r.StepTrace)-i)
				break
			}
			fmt.Printf("    %4d %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n", i,
				s.Compute*1e3, s.Memory*1e3, s.Heap*1e3, s.Syscall*1e3, s.Sched*1e3, s.Comm*1e3, s.Noise*1e3)
		}
	}
}

func writeArtifact(path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mkrun: wrote %s (%d bytes)\n", path, len(data))
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mkrun:", err)
	os.Exit(1)
}
