// Command mkfleet runs the facility-scale batch-scheduler simulation: a
// seeded multi-tenant job stream scheduled onto a finite node pool with
// FIFO + conservative backfill, a pluggable per-job kernel-selection policy,
// and co-tenancy interference on shared nodes (see docs/FLEET.md).
//
// Usage:
//
//	mkfleet                                   # 1,000 jobs on 256 nodes, heuristic policy
//	mkfleet -policy specialize -share 2       # MultiK-style per-app specialization
//	mkfleet -compare -jobs 200 -nodes 64      # all policies on the same stream
//	mkfleet -json -seed 7                     # byte-stable JSON (CI diffs two runs)
//	mkfleet -obs-timeline tl.json -obs-decisions dl.json -json > result.json
//
// The -obs-* flags record the facility's observability artifacts; mkobs
// validates and diffs them and judges the result against an SLO (see
// docs/OBSERVABILITY.md).
//
// Output is a pure function of the flags: same flags, same bytes, at any
// -workers width.
//
// Exit status: 0 on success, 1 on a failed run or SLO, 2 on a usage error
// (a bad flag, -nodes, -jobs or -share below 1, a negative -backfill-depth
// or -arrival-mean, or a positional argument).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"mklite/internal/cliflags"
	"mklite/internal/cluster"
	"mklite/internal/fault"
	"mklite/internal/fleet"
	"mklite/internal/obs"
	"mklite/internal/sim"
	"mklite/internal/stats"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 256, "facility size in nodes (at least 1)")
		jobs     = flag.Int("jobs", 1000, "number of jobs in the stream (at least 1)")
		seed     = cliflags.Seed(flag.CommandLine)
		workers  = cliflags.Workers(flag.CommandLine)
		policy   = flag.String("policy", "heuristic", "kernel-selection policy: "+strings.Join(fleet.PolicyNames(), ", ")+"; add ':<sched>' (e.g. heuristic:gang) to pin every job's scheduler")
		schedF   = cliflags.Sched(flag.CommandLine)
		backfill = flag.Bool("backfill", true, "conservative backfill (false = strict FIFO)")
		depth    = flag.Int("backfill-depth", 0, "max queued jobs examined per backfill pass (0 = default)")
		share    = flag.Int("share", 1, "node oversubscription factor (jobs per node, at least 1; >1 enables co-tenancy interference)")
		interf   = flag.String("interference", "", "co-tenancy fault-plan template, e.g. 'storm:period=2ms,burst=150us,offload-factor=2' (default: built-in template when -share > 1)")
		arrival  = flag.Duration("arrival-mean", 0, "mean job interarrival gap (virtual time; 0 = default)")
		counters = cliflags.Counters(flag.CommandLine)
		perjob   = flag.Bool("perjob", false, "include every job's outcome in the result")
		compare  = flag.Bool("compare", false, "run every policy on the same stream and print a comparison table")
		jsonOut  = flag.Bool("json", false, "emit the result as JSON (byte-stable)")

		obsTimeline  = flag.String("obs-timeline", "", "write the facility occupancy timeline (Chrome trace JSON) to this file")
		obsDecisions = flag.String("obs-decisions", "", "write the backfill decision log to this file")
		obsJobCtrs   = flag.Bool("obs-job-counters", false, "namespace per-job counters as job/<id>/... in the result")
		obsJobEvents = flag.Bool("obs-job-events", false, "merge each job's cluster/kernel events onto its own timeline track (needs -obs-timeline)")
		obsSLO       = flag.String("obs-slo", "", "SLO spec evaluated into the result (exit 1 on failure), e.g. 'wait_p99_sec<=2;utilization_pct>=60'")
	)
	flag.Parse()
	switch {
	case flag.NArg() > 0:
		usage(fmt.Sprintf("unexpected arguments %q", flag.Args()))
	case *nodes < 1 || *jobs < 1 || *share < 1:
		usage(fmt.Sprintf("-nodes %d, -jobs %d, -share %d: want each at least 1", *nodes, *jobs, *share))
	case *depth < 0 || *arrival < 0:
		usage(fmt.Sprintf("-backfill-depth %d, -arrival-mean %v: want each 0 (the default) or more", *depth, *arrival))
	}

	cfg := fleet.Config{
		Nodes:         *nodes,
		Jobs:          *jobs,
		Seed:          *seed,
		Workers:       *workers,
		Backfill:      *backfill,
		BackfillDepth: *depth,
		Share:         *share,
		ArrivalMean:   sim.Duration(*arrival),
		Counters:      *counters,
		PerJob:        *perjob,
	}
	if *interf != "" {
		plan, err := fault.ParsePlan(*interf)
		if err != nil {
			fatal(err)
		}
		cfg.Interference = plan
	}
	// -sched becomes the policy name's ":<sched>" suffix, so ParsePolicy
	// validates it and rejects a name that already pins a scheduler.
	schedSuffix := ""
	if *schedF != "" {
		schedSuffix = ":" + *schedF
	}

	obsOn := *obsTimeline != "" || *obsDecisions != "" || *obsJobCtrs || *obsJobEvents || *obsSLO != ""
	if obsOn && *compare {
		fatal(fmt.Errorf("-obs-* flags apply to a single run; drop -compare and run once per -policy"))
	}
	if *obsJobEvents && *obsTimeline == "" {
		fatal(fmt.Errorf("-obs-job-events needs -obs-timeline to merge into"))
	}
	var obsOpts *obs.Options
	if obsOn {
		obsOpts = &obs.Options{JobCounters: *obsJobCtrs, JobEvents: *obsJobEvents}
		if *obsTimeline != "" {
			obsOpts.Timeline = obs.NewTimeline(cfg.Nodes, max(cfg.Share, 1), 0)
		}
		if *obsDecisions != "" {
			obsOpts.Decisions = obs.NewDecisionLog()
		}
		cfg.Observe = obsOpts
		if *obsSLO != "" {
			slo, err := obs.ParseSLO(*obsSLO)
			if err != nil {
				fatal(err)
			}
			cfg.SLO = slo
		}
	}

	if *compare {
		// The legs share one node image store: each image is prepared
		// once for the whole comparison.
		cfg.Images = cluster.NewImages()
		results := make([]*fleet.Result, 0, len(fleet.PolicyNames()))
		for _, name := range fleet.PolicyNames() {
			pol, err := fleet.ParsePolicy(name+schedSuffix, cfg.Seed, cfg.Workers, cfg.Interference)
			if err != nil {
				fatal(err)
			}
			c := cfg
			c.Policy = pol
			res, err := fleet.Run(c)
			if err != nil {
				fatal(err)
			}
			results = append(results, res)
		}
		if *jsonOut {
			emitJSON(results)
			return
		}
		tbl := stats.NewTable("policy", "jobs/h", "util %", "wait p50 s", "wait p99 s", "backfilled", "interfered")
		for _, r := range results {
			tbl.AddRowf("%s|%.1f|%.1f|%.3f|%.3f|%d|%d",
				r.Policy, r.JobsPerHour, r.UtilizationPct, r.WaitP50Sec, r.WaitP99Sec,
				r.Backfilled, r.Interfered)
		}
		fmt.Print(tbl.Render())
		return
	}

	pol, err := fleet.ParsePolicy(*policy+schedSuffix, cfg.Seed, cfg.Workers, cfg.Interference)
	if err != nil {
		fatal(err)
	}
	cfg.Policy = pol
	res, err := fleet.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if *obsTimeline != "" {
		if err := os.WriteFile(*obsTimeline, obsOpts.Timeline.JSON(), 0o644); err != nil {
			fatal(err)
		}
	}
	if *obsDecisions != "" {
		out, err := obsOpts.Decisions.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*obsDecisions, out, 0o644); err != nil {
			fatal(err)
		}
	}
	sloExit := func() {
		if res.SLO != nil && !res.SLO.Passed {
			os.Exit(1)
		}
	}
	if *jsonOut {
		emitJSON(res)
		sloExit()
		return
	}

	fmt.Printf("facility: %d nodes (share %d), %d jobs, policy %s\n",
		res.FacilityNodes, res.Share, res.Jobs, res.Policy)
	fmt.Printf("  makespan:    %.3f s (virtual)\n", res.MakespanSec)
	fmt.Printf("  throughput:  %.1f jobs/hour\n", res.JobsPerHour)
	fmt.Printf("  utilization: %.1f%%\n", res.UtilizationPct)
	fmt.Printf("  queue wait:  p50 %.3fs  p99 %.3fs  max %.3fs  mean %.3fs\n",
		res.WaitP50Sec, res.WaitP99Sec, res.WaitMaxSec, res.WaitMeanSec)
	fmt.Printf("  backfilled:  %d jobs; interfered: %d jobs\n", res.Backfilled, res.Interfered)
	fmt.Print("  kernels:    ")
	for _, k := range slices.Sorted(maps.Keys(res.KernelJobs)) {
		fmt.Printf(" %s:%d", k, res.KernelJobs[k])
	}
	fmt.Println()
	if *counters && len(res.Counters) > 0 {
		fmt.Println("  counters:")
		for _, k := range slices.Sorted(maps.Keys(res.Counters)) {
			fmt.Printf("    %-32s %d\n", k, res.Counters[k])
		}
	}
	if *perjob {
		fmt.Println("  per-job outcomes: (use -json for machine-readable output)")
		for i, o := range res.PerJob {
			if i >= 10 {
				fmt.Printf("    ... %d more jobs\n", len(res.PerJob)-i)
				break
			}
			kern := o.Kernel
			if o.Sched != "" {
				kern += "/" + o.Sched
			}
			fmt.Printf("    job %4d  %-10s %-14s %3d nodes  wait %8.3fs  run %7.3fs\n",
				o.ID, o.App, kern, o.Nodes, o.WaitSec, o.ElapsedSec)
		}
	}
	if res.SLO != nil {
		fmt.Println("  slo:")
		for _, r := range res.SLO.Results {
			verdict := "pass"
			if !r.Pass {
				verdict = "FAIL"
			}
			fmt.Printf("    %-4s %s%s%g (observed %g)\n", verdict, r.Metric, r.Op, r.Threshold, r.Value)
		}
	}
	sloExit()
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mkfleet:", err)
	os.Exit(1)
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "mkfleet:", msg)
	flag.Usage()
	os.Exit(2)
}
