package fleet

import (
	"encoding/json"
	"maps"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/sched"
	"mklite/internal/sim"
)

// quickCfg is the test-sized facility: big enough to exercise backfill,
// co-tenancy interference and same-instant launches, small enough to run
// under -race in CI.
func quickCfg() Config {
	return Config{
		Nodes:    64,
		Jobs:     120,
		Seed:     7,
		Backfill: true,
		Share:    2,
		Counters: true,
		PerJob:   true,
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWidthEquivalence is the facility-level determinism gate: the full
// Result — per-job outcomes, merged counters, quantiles — must be
// byte-identical whether the launch pipeline runs jobs inline (width 1) or
// overlaps them at widths 2, 4 and GOMAXPROCS.
func TestWidthEquivalence(t *testing.T) {
	cfg := quickCfg()
	cfg.Workers = 1
	seq := resultBytes(t, mustRun(t, cfg))
	for _, w := range []int{2, 4, 0} {
		cfg.Workers = w
		par := resultBytes(t, mustRun(t, cfg))
		if string(seq) != string(par) {
			t.Fatalf("facility result differs between widths 1 and %d (0 = GOMAXPROCS):\nseq: %.200s\npar: %.200s", w, seq, par)
		}
	}
}

// TestFullScaleWidthEquivalence is the PR's acceptance gate at the scale
// the issue names: 1,000 jobs over a 256-node facility with backfill,
// co-tenancy sharing, interference and per-job counters, byte-identical
// between par widths 1 and GOMAXPROCS. It runs under -race in CI (~3s per
// width), so it doubles as the race gate for the launch fan-out.
func TestFullScaleWidthEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale facility run (use the quick TestWidthEquivalence)")
	}
	cfg := Config{
		Nodes:       256,
		Jobs:        1000,
		Seed:        1,
		Backfill:    true,
		Share:       2,
		ArrivalMean: DefaultArrivalMean / 4, // the experiment's loaded rate: real queue, real backfill
		Counters:    true,
		PerJob:      true,
	}
	cfg.Workers = 1
	seq := resultBytes(t, mustRun(t, cfg))
	cfg.Workers = 0
	par := resultBytes(t, mustRun(t, cfg))
	if string(seq) != string(par) {
		t.Fatal("full-scale facility result differs between widths 1 and GOMAXPROCS")
	}
	var res Result
	if err := json.Unmarshal(seq, &res); err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 1000 || res.FacilityNodes != 256 {
		t.Fatalf("acceptance scale: got %d jobs on %d nodes, want 1000 on 256", res.Jobs, res.FacilityNodes)
	}
}

// TestSeedReplayAndDivergence: same seed reproduces bytes; different seeds
// diverge (the digest is not vacuous).
func TestSeedReplayAndDivergence(t *testing.T) {
	a := resultBytes(t, mustRun(t, quickCfg()))
	b := resultBytes(t, mustRun(t, quickCfg()))
	if string(a) != string(b) {
		t.Fatal("same (Config, Seed) produced different result bytes")
	}
	cfg := quickCfg()
	cfg.Seed = 8
	c := resultBytes(t, mustRun(t, cfg))
	if string(a) == string(c) {
		t.Fatal("different seeds produced identical result bytes")
	}
}

// TestRunInvariants sanity-checks one quick facility run's aggregates.
func TestRunInvariants(t *testing.T) {
	cfg := quickCfg()
	res := mustRun(t, cfg)
	if res.Jobs != cfg.Jobs {
		t.Fatalf("launched %d of %d jobs", res.Jobs, cfg.Jobs)
	}
	if len(res.PerJob) != cfg.Jobs {
		t.Fatalf("PerJob has %d records, want %d", len(res.PerJob), cfg.Jobs)
	}
	if res.MakespanSec <= 0 || res.JobsPerHour <= 0 {
		t.Fatalf("degenerate makespan %v / throughput %v", res.MakespanSec, res.JobsPerHour)
	}
	if res.UtilizationPct <= 0 || res.UtilizationPct > 100 {
		t.Fatalf("utilization %v%% out of range", res.UtilizationPct)
	}
	if res.WaitP50Sec > res.WaitP99Sec || res.WaitP99Sec > res.WaitMaxSec {
		t.Fatalf("wait quantiles out of order: p50=%v p99=%v max=%v",
			res.WaitP50Sec, res.WaitP99Sec, res.WaitMaxSec)
	}
	total := 0
	for _, n := range res.KernelJobs {
		total += n
	}
	if total != cfg.Jobs {
		t.Fatalf("KernelJobs sums to %d, want %d", total, cfg.Jobs)
	}
	if res.Counters["fleet.jobs_launched"] != int64(cfg.Jobs) ||
		res.Counters["fleet.jobs_completed"] != int64(cfg.Jobs) {
		t.Fatalf("scheduler counters inconsistent: %v", res.Counters)
	}
	// Share=2 on a loaded facility must actually co-locate some jobs, and
	// co-located jobs must carry interference plans.
	if res.Interfered == 0 {
		t.Fatal("Share=2 run co-located no jobs")
	}
	// The default interference template injects storms and offload stalls;
	// at least one fault.* mechanism counter must have fired.
	faultKeys := 0
	for k := range res.Counters {
		if len(k) > 6 && k[:6] == "fault." {
			faultKeys++
		}
	}
	if faultKeys == 0 {
		t.Fatal("interfered jobs produced no fault.* counters")
	}
	for i, o := range res.PerJob {
		if o.ID != i {
			t.Fatalf("PerJob[%d] has ID %d", i, o.ID)
		}
		if o.StartSec < o.ArrivalSec {
			t.Fatalf("job %d started before it arrived", i)
		}
	}
}

// TestFIFOvsBackfill: strict FIFO backfills nothing; conservative backfill
// starts some jobs early and must not worsen the queue-head-blocking p99
// wait. (The in-pass invariant check panics on any head delay, so a passing
// run is itself evidence the invariant held on every pass.)
func TestFIFOvsBackfill(t *testing.T) {
	cfg := quickCfg()
	cfg.Backfill = false
	fifo := mustRun(t, cfg)
	if fifo.Backfilled != 0 {
		t.Fatalf("FIFO run reports %d backfilled jobs", fifo.Backfilled)
	}
	cfg.Backfill = true
	bf := mustRun(t, cfg)
	if bf.Backfilled == 0 {
		t.Fatal("backfill run backfilled nothing")
	}
	if bf.MakespanSec > fifo.MakespanSec*1.05 {
		t.Fatalf("backfill worsened makespan: %.3fs vs FIFO %.3fs", bf.MakespanSec, fifo.MakespanSec)
	}
}

// TestStreamDeterminism: the generated stream is reproducible and its
// attributes respect the configured bounds.
func TestStreamDeterminism(t *testing.T) {
	cfg := Config{Nodes: 64, Jobs: 200, Seed: 3}
	a, err := GenerateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.Time(0)
	for i := range a {
		// Job embeds a spec pointer; compare the spec by name and the rest
		// by value.
		aj, bj := *a[i], *b[i]
		aj.App, bj.App = nil, nil
		if aj != bj || a[i].App.Name != b[i].App.Name {
			t.Fatalf("job %d differs between replays: %+v vs %+v", i, aj, bj)
		}
		j := a[i]
		if j.Arrival.Before(clock) {
			t.Fatalf("job %d arrives before its predecessor", i)
		}
		clock = j.Arrival
		if j.Nodes < 1 || j.Nodes > DefaultMaxJobNodes {
			t.Fatalf("job %d node count %d out of range", i, j.Nodes)
		}
		if j.Timesteps < DefaultMinTimesteps || j.Timesteps > DefaultMaxTimesteps {
			t.Fatalf("job %d timestep budget %d out of range", i, j.Timesteps)
		}
		if j.App.Timesteps != j.Timesteps {
			t.Fatalf("job %d spec clone has %d timesteps, want %d", i, j.App.Timesteps, j.Timesteps)
		}
		if j.WallLimit < estimateRuntime(j.App, j.Nodes) {
			t.Fatalf("job %d walltime limit below its runtime estimate", i)
		}
	}
}

// TestAllocator covers placement, co-tenancy reporting and release.
func TestAllocator(t *testing.T) {
	a := NewAllocator(4, 2)
	n1, c1, err := a.Alloc(3)
	if err != nil || c1 != 0 {
		t.Fatalf("Alloc(3) = %v cotenancy %d, err %v", n1, c1, err)
	}
	if want := []int{0, 1, 2}; len(n1) != 3 || n1[0] != want[0] || n1[1] != want[1] || n1[2] != want[2] {
		t.Fatalf("Alloc(3) picked %v, want lowest indices %v", n1, want)
	}
	// Next job prefers the empty node 3, then doubles up from index 0.
	n2, c2, err := a.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	if n2[0] != 3 || n2[1] != 0 || c2 != 1 {
		t.Fatalf("Alloc(2) = %v cotenancy %d, want [3 0] cotenancy 1", n2, c2)
	}
	if a.Occupied() != 4 {
		t.Fatalf("Occupied = %d, want 4", a.Occupied())
	}
	if a.Fits(4) {
		t.Fatal("Fits(4) should fail with only 3 single-occupancy nodes left")
	}
	a.Free(n1)
	if a.Occupied() != 2 || !a.Fits(4) {
		t.Fatalf("after free: occupied %d, Fits(4)=%v", a.Occupied(), a.Fits(4))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(n1)
}

// TestProfile covers the backfill planning timeline.
func TestProfile(t *testing.T) {
	now := sim.Time(0)
	p := availSnapshot{now: now, freeNow: 2, releases: []release{
		{at: sim.Time(10 * sim.Second), slots: 4},
		{at: sim.Time(20 * sim.Second), slots: 2},
	}}.profile(&profile{})
	if got := p.earliest(sim.Duration(5*sim.Second), 2); got != now {
		t.Fatalf("earliest(2 slots) = %v, want now", got)
	}
	if got := p.earliest(sim.Duration(5*sim.Second), 4); got != sim.Time(10*sim.Second) {
		t.Fatalf("earliest(4 slots) = %v, want 10s", got)
	}
	if got := p.earliest(sim.Duration(5*sim.Second), 8); got != sim.Time(20*sim.Second) {
		t.Fatalf("earliest(8 slots) = %v, want 20s", got)
	}
	// Take the current 2 slots until 12s: free becomes 0 until 10s, then 4
	// (the release net of the held reservation), so a 4-slot request clears
	// at 10s and a 6-slot request only once the reservation ends at 12s.
	p.take(now, sim.Duration(12*sim.Second), 2)
	if got := p.earliest(sim.Duration(1*sim.Second), 4); got != sim.Time(10*sim.Second) {
		t.Fatalf("earliest(4 slots) after take = %v, want 10s", got)
	}
	if got := p.earliest(sim.Duration(1*sim.Second), 6); got != sim.Time(12*sim.Second) {
		t.Fatalf("earliest(6 slots) after take = %v, want 12s", got)
	}
	if p.fitsAt(now, sim.Duration(1*sim.Second), 1) {
		t.Fatal("fitsAt claims free slots during a full reservation")
	}
}

// TestPolicies pins each policy's kernel choices on the registry's profiles.
func TestPolicies(t *testing.T) {
	if got := Fixed(kernel.TypeMOS).Name(); got != "fixed-mos" {
		t.Fatalf("Fixed name = %q", got)
	}
	stream, err := GenerateStream(Config{Nodes: 64, Jobs: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h := Heuristic()
	counts := map[kernel.Type]int{}
	for _, j := range stream {
		ch := h.Select(j)
		if ch.Sched != "" {
			t.Fatalf("heuristic forced scheduler %q, want kernel default", ch.Sched)
		}
		k := ch.Kernel
		counts[k]++
		switch j.App.Name {
		case "lammps", "amg2013":
			// Device-syscall heavy / yield-storm apps stay on Linux.
			if k != kernel.TypeLinux {
				t.Fatalf("heuristic sent %s to %v", j.App.Name, k)
			}
		case "lulesh2.0":
			// The heap-trace app goes to mOS.
			if k != kernel.TypeMOS {
				t.Fatalf("heuristic sent lulesh to %v", k)
			}
		}
		if Fixed(kernel.TypeLinux).Select(j).Kernel != kernel.TypeLinux {
			t.Fatal("fixed policy deviated")
		}
	}
	if len(counts) < 3 {
		t.Fatalf("heuristic used %d kernels over the stream, want all 3 (%v)", len(counts), counts)
	}
}

// TestSpecializeCalibration: the calibration table is deterministic across
// widths, covers every registry app, and mostly prefers the LWKs (the
// paper's headline result at small scale with no interference is that LWKs
// win or tie).
func TestSpecializeCalibration(t *testing.T) {
	p1, err := Specialize(11, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := Specialize(11, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t1, t0 := p1.(*specializePolicy).table, p0.(*specializePolicy).table
	if len(t1) == 0 {
		t.Fatal("empty calibration table")
	}
	if !maps.Equal(t1, t0) {
		t.Fatalf("calibration differs between widths: %v vs %v", t1, t0)
	}
	lwk := 0
	for _, k := range t1 {
		if k != kernel.TypeLinux {
			lwk++
		}
	}
	if lwk == 0 {
		t.Fatalf("calibration specialized nothing to an LWK: %v", t1)
	}
}

// TestParsePolicy covers the CLI surface.
func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"fixed-linux", "fixed-mckernel", "fixed-mos", "heuristic"} {
		p, err := ParsePolicy(name, 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("ParsePolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ParsePolicy("round-robin", 1, 1, nil); err == nil {
		t.Fatal("unknown policy accepted")
	}

	// The ":<sched>" suffix forces a scheduler on every selection.
	p, err := ParsePolicy("heuristic:gang", 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "heuristic:gang" {
		t.Fatalf("ParsePolicy(heuristic:gang).Name() = %q", p.Name())
	}
	j := &Job{App: apps.MiniFE(), Nodes: 4}
	ch := p.Select(j)
	if ch.Sched != sched.Gang {
		t.Fatalf("heuristic:gang selected sched %q, want gang", ch.Sched)
	}
	if ch.Kernel != Heuristic().Select(j).Kernel {
		t.Fatal("sched suffix changed the kernel decision")
	}
	if _, err := ParsePolicy("fixed-linux:fifo", 1, 1, nil); err == nil {
		t.Fatal("unknown sched suffix accepted")
	}
}

// TestInterferenceScaling: the template's offload inflation and stall
// probability scale with co-tenancy; zero co-tenancy disables the plan.
func TestInterferenceScaling(t *testing.T) {
	tmpl := DefaultInterference()
	if p := interferenceFor(tmpl, 0); p != nil {
		t.Fatal("co-tenancy 0 should yield no plan")
	}
	if p := interferenceFor(nil, 3); p != nil {
		t.Fatal("nil template should yield no plan")
	}
	p1 := interferenceFor(tmpl, 1)
	p3 := interferenceFor(tmpl, 3)
	if p1.Storm.OffloadFactor != tmpl.Storm.OffloadFactor {
		t.Fatalf("co-tenancy 1 changed the template: %v", p1.Storm.OffloadFactor)
	}
	wantF := 1 + (tmpl.Storm.OffloadFactor-1)*3
	if p3.Storm.OffloadFactor != wantF {
		t.Fatalf("co-tenancy 3 offload factor %v, want %v", p3.Storm.OffloadFactor, wantF)
	}
	if p3.Offload.StallProb != tmpl.Offload.StallProb*3 {
		t.Fatalf("co-tenancy 3 stall prob %v, want %v", p3.Offload.StallProb, tmpl.Offload.StallProb*3)
	}
	if err := p3.Validate(); err != nil {
		t.Fatal(err)
	}
	// A huge co-tenancy saturates probabilities instead of leaving the
	// model's domain.
	if p := interferenceFor(tmpl, 1_000_000); p.Offload.StallProb > 1 {
		t.Fatalf("stall prob %v escaped [0,1]", p.Offload.StallProb)
	}
}

// TestInterferenceRejectsNodeFail: facility interference must not inject
// node failures (retries belong to per-job plans).
func TestInterferenceRejectsNodeFail(t *testing.T) {
	cfg := quickCfg()
	cfg.Interference = &fault.Plan{NodeFail: &fault.NodeFailure{Prob: 0.1}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("node-failure interference accepted")
	}
}

// TestPolicySeparation is the facility-level policy comparison: running
// everything on Linux must measurably underperform the specialize policy on
// throughput — the MultiK argument, visible in facility metrics.
func TestPolicySeparation(t *testing.T) {
	cfg := quickCfg()
	cfg.PerJob = false
	cfg.Counters = false

	cfg.Policy = Fixed(kernel.TypeLinux)
	linux := mustRun(t, cfg)

	spec, err := Specialize(cfg.Seed, 0, cfg.Interference)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = spec
	specRes := mustRun(t, cfg)

	if specRes.JobsPerHour < linux.JobsPerHour*1.05 {
		t.Fatalf("no measurable policy separation: specialize %.1f jobs/h vs fixed-linux %.1f jobs/h",
			specRes.JobsPerHour, linux.JobsPerHour)
	}
}

// TestSchedChoiceFlowsThrough: a ":<sched>" policy records its scheduler on
// every per-job outcome and still produces a deterministic, completed run —
// the fleet seam carries the Choice end to end, and forcing a default-charge
// policy (tickless) leaves the facility byte-identical to the plain policy
// on the LWKs' jobs only insofar as the cluster model says so (here we only
// pin the plumbing, not the physics).
func TestSchedChoiceFlowsThrough(t *testing.T) {
	cfg := quickCfg()
	cfg.Jobs = 40
	pol, err := ParsePolicy("heuristic:rr", cfg.Seed, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = pol
	res := mustRun(t, cfg)
	if res.Policy != "heuristic:rr" {
		t.Fatalf("result policy = %q", res.Policy)
	}
	if len(res.PerJob) != cfg.Jobs {
		t.Fatalf("per-job records = %d, want %d", len(res.PerJob), cfg.Jobs)
	}
	for _, o := range res.PerJob {
		if o.Sched != "rr" {
			t.Fatalf("job %d recorded sched %q, want rr", o.ID, o.Sched)
		}
	}

	// And the default spelling records no scheduler at all.
	cfg.Policy = Heuristic()
	base := mustRun(t, cfg)
	for _, o := range base.PerJob {
		if o.Sched != "" {
			t.Fatalf("default policy recorded sched %q on job %d", o.Sched, o.ID)
		}
	}

	// rr charges real overhead, so the facility outcome must differ from the
	// default — the choice reaches the cluster model, not just the report.
	if res.MakespanSec == base.MakespanSec {
		t.Fatal("forcing rr left the makespan bit-identical — sched choice not reaching the runs")
	}
}
