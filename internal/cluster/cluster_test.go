package cluster

import (
	"testing"

	"mklite/internal/apps"
	"mklite/internal/fabric"
	"mklite/internal/kernel"
	"mklite/internal/mckernel"
	"mklite/internal/mos"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

func run(t *testing.T, j Job) Result {
	t.Helper()
	r, err := Run(j)
	if err != nil {
		t.Fatalf("Run(%s on %v at %d): %v", j.App.Name, j.Kernel, j.Nodes, err)
	}
	return r
}

func fomOf(t *testing.T, app *apps.Spec, kt kernel.Type, nodes int) float64 {
	return run(t, Job{App: app, Kernel: kt, Nodes: nodes, Seed: 7}).FOM
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Job{}); err == nil {
		t.Fatal("nil app accepted")
	}
	if _, err := Run(Job{App: apps.MILC(), Nodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := Run(Job{App: apps.MILC(), Nodes: 1, Kernel: kernel.Type(99)}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestBootDefault(t *testing.T) {
	for _, kt := range []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS} {
		k, err := BootDefault(kt)
		if err != nil {
			t.Fatalf("BootDefault(%v): %v", kt, err)
		}
		if k.Type() != kt {
			t.Fatalf("BootDefault(%v) booted %v", kt, k.Type())
		}
	}
	if _, err := BootDefault(kernel.Type(99)); err == nil {
		t.Fatal("unknown kernel type booted")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	j := Job{App: apps.MILC(), Kernel: kernel.TypeLinux, Nodes: 32, Seed: 11}
	a := run(t, j)
	b := run(t, j)
	if a.FOM != b.FOM || a.Elapsed != b.Elapsed {
		t.Fatalf("same seed, different results: %v vs %v", a.FOM, b.FOM)
	}
	j.Seed = 12
	c := run(t, j)
	if c.Elapsed == a.Elapsed {
		t.Fatal("different seed produced identical elapsed time")
	}
}

func TestResultMetadata(t *testing.T) {
	r := run(t, Job{App: apps.HPCG(), Kernel: kernel.TypeMOS, Nodes: 4, Seed: 1})
	if r.App != "hpcg" || r.Kernel != "mOS" || r.Nodes != 4 {
		t.Fatalf("metadata: %+v", r)
	}
	if r.Ranks != 4*16 {
		t.Fatalf("ranks = %d", r.Ranks)
	}
	if r.Unit != "Gflops" {
		t.Fatalf("unit = %q", r.Unit)
	}
	if r.FOM <= 0 || r.Elapsed <= 0 {
		t.Fatal("non-positive outcome")
	}
	if got, want := r.Breakdown.Total()+r.Elapsed-r.Elapsed, r.Breakdown.Total(); got != want {
		t.Fatal("breakdown total")
	}
}

func TestBreakdownSumsToElapsed(t *testing.T) {
	r := run(t, Job{App: apps.Lulesh(), Kernel: kernel.TypeLinux, Nodes: 8, Seed: 3})
	if r.Breakdown.Total() != r.Elapsed {
		t.Fatalf("breakdown %v != elapsed %v", r.Breakdown.Total(), r.Elapsed)
	}
}

func TestLWKsBeatLinuxOnNoiseSensitiveApps(t *testing.T) {
	for _, app := range []*apps.Spec{apps.MILC(), apps.MiniFE()} {
		nodes := app.NodeCounts[len(app.NodeCounts)-1]
		lin := fomOf(t, app, kernel.TypeLinux, nodes)
		mck := fomOf(t, app, kernel.TypeMcKernel, nodes)
		mosv := fomOf(t, app, kernel.TypeMOS, nodes)
		if mck <= lin || mosv <= lin {
			t.Fatalf("%s at %d nodes: LWKs (%v, %v) not above Linux (%v)",
				app.Name, nodes, mck, mosv, lin)
		}
	}
}

func TestMiniFECliffGrowsWithScale(t *testing.T) {
	app := apps.MiniFE()
	ratioAt := func(nodes int) float64 {
		return fomOf(t, app, kernel.TypeMcKernel, nodes) / fomOf(t, app, kernel.TypeLinux, nodes)
	}
	small, mid, big := ratioAt(16), ratioAt(256), ratioAt(1024)
	if !(small < mid && mid < big) {
		t.Fatalf("cliff not growing: %v %v %v", small, mid, big)
	}
	// "almost seven times faster on 1,024 nodes" — accept a generous
	// band around the paper's factor.
	if big < 4 || big > 12 {
		t.Fatalf("1024-node miniFE advantage %v outside plausible band", big)
	}
}

func TestLAMMPSLinuxWinsAtScale(t *testing.T) {
	app := apps.LAMMPS()
	// Single node: LWKs at least on par.
	if fomOf(t, app, kernel.TypeMcKernel, 1) < fomOf(t, app, kernel.TypeLinux, 1)*0.99 {
		t.Fatal("single-node LAMMPS should not favour Linux")
	}
	// At scale the device-syscall offloads cost the LWKs the lead.
	lin := fomOf(t, app, kernel.TypeLinux, 1024)
	mck := fomOf(t, app, kernel.TypeMcKernel, 1024)
	if mck >= lin {
		t.Fatalf("LAMMPS at scale: McKernel %v should trail Linux %v", mck, lin)
	}
	// On a user-space fabric the anomaly disappears.
	j := Job{App: app, Kernel: kernel.TypeMcKernel, Nodes: 1024, Seed: 7, Fabric: fabric.UserSpaceFabric()}
	jl := Job{App: app, Kernel: kernel.TypeLinux, Nodes: 1024, Seed: 7, Fabric: fabric.UserSpaceFabric()}
	if run(t, j).FOM < run(t, jl).FOM {
		t.Fatal("user-space fabric should restore the LWK lead")
	}
}

func TestCCSQCDMemoryHierarchy(t *testing.T) {
	app := apps.CCSQCD()
	lin := run(t, Job{App: app, Kernel: kernel.TypeLinux, Nodes: 64, Seed: 7})
	mck := run(t, Job{App: app, Kernel: kernel.TypeMcKernel, Nodes: 64, Seed: 7})
	mosr := run(t, Job{App: app, Kernel: kernel.TypeMOS, Nodes: 64, Seed: 7})

	// Ordering of Figure 5a: McKernel > mOS > Linux.
	if !(mck.FOM > mosr.FOM && mosr.FOM > lin.FOM) {
		t.Fatalf("ordering: mck=%v mos=%v linux=%v", mck.FOM, mosr.FOM, lin.FOM)
	}
	// McKernel's ranks fall back to demand paging (the working set
	// exceeds the local MCDRAM domain); mOS divides upfront.
	if mck.DemandRanks != app.RanksPerNode {
		t.Fatalf("McKernel demand ranks = %d", mck.DemandRanks)
	}
	if mosr.DemandRanks != 0 {
		t.Fatalf("mOS demand ranks = %d", mosr.DemandRanks)
	}
	// Linux runs from DDR4: no MCDRAM residency. LWKs fill MCDRAM.
	if lin.MCDRAMBytes != 0 {
		t.Fatalf("Linux used %d bytes of MCDRAM in SNC-4", lin.MCDRAMBytes)
	}
	if mck.MCDRAMBytes == 0 || mosr.MCDRAMBytes == 0 {
		t.Fatal("LWKs did not use MCDRAM")
	}
}

func TestForceDDROnly(t *testing.T) {
	app := apps.Lulesh()
	r := run(t, Job{App: app, Kernel: kernel.TypeMcKernel, Nodes: 1, Seed: 7, ForceDDROnly: true})
	if r.MCDRAMBytes != 0 {
		t.Fatalf("ForceDDROnly left %d bytes in MCDRAM", r.MCDRAMBytes)
	}
	spill := run(t, Job{App: app, Kernel: kernel.TypeMcKernel, Nodes: 1, Seed: 7})
	if r.FOM >= spill.FOM {
		t.Fatal("DDR-only run should be slower than MCDRAM run")
	}
}

func TestLuleshHeapDominatesLinuxDeficit(t *testing.T) {
	lin := run(t, Job{App: apps.Lulesh(), Kernel: kernel.TypeLinux, Nodes: 8, Seed: 7})
	mck := run(t, Job{App: apps.Lulesh(), Kernel: kernel.TypeMcKernel, Nodes: 8, Seed: 7})
	if lin.Breakdown.Heap <= 10*mck.Breakdown.Heap {
		t.Fatalf("Linux heap time %v should dwarf LWK %v",
			lin.Breakdown.Heap, mck.Breakdown.Heap)
	}
	// The heap trace statistics survive into the result.
	if lin.HeapStats.Grows == 0 || lin.HeapStats.Shrinks == 0 || lin.HeapStats.Queries == 0 {
		t.Fatalf("heap stats empty: %+v", lin.HeapStats)
	}
}

func TestMcKernelProxyOptions(t *testing.T) {
	app := apps.AMG2013()
	plain := run(t, Job{App: app, Kernel: kernel.TypeMcKernel, Nodes: 16, Seed: 7})
	opts := mckernel.DefaultOptions()
	opts.MpolShmPremap = true
	opts.DisableSchedYield = true
	tuned := run(t, Job{App: app, Kernel: kernel.TypeMcKernel, Nodes: 16, Seed: 7, McK: &opts})
	if tuned.FOM <= plain.FOM {
		t.Fatalf("proxy options did not help: %v vs %v", tuned.FOM, plain.FOM)
	}
	gain := tuned.FOM/plain.FOM - 1
	// Paper: +9% on AMG 2013 at 16 nodes; accept a broad band.
	if gain < 0.01 || gain > 0.30 {
		t.Fatalf("AMG proxy-option gain %v outside band", gain)
	}
}

func TestMOSHeapToggleMatters(t *testing.T) {
	cfg := mos.DefaultConfig()
	cfg.HeapManagement = false
	off := run(t, Job{App: apps.Lulesh(), Kernel: kernel.TypeMOS, Nodes: 1, Seed: 7, MOS: &cfg, ForceDDROnly: true})
	on := run(t, Job{App: apps.Lulesh(), Kernel: kernel.TypeMOS, Nodes: 1, Seed: 7, ForceDDROnly: true})
	if on.FOM <= off.FOM {
		t.Fatalf("heap management off (%v) not slower than on (%v)", off.FOM, on.FOM)
	}
}

func TestWeakScalingRoughlyFlatPerNode(t *testing.T) {
	// A weak-scaled app's per-node rate on a quiet LWK should stay
	// within ~25% from 1 to 512 nodes (communication grows slowly).
	app := apps.GeoFEM()
	f1 := fomOf(t, app, kernel.TypeMcKernel, 1) / 1
	f512 := fomOf(t, app, kernel.TypeMcKernel, 512) / 512
	ratio := f512 / f1
	if ratio < 0.75 || ratio > 1.05 {
		t.Fatalf("weak scaling per-node ratio %v", ratio)
	}
}

func TestAllAppsRunOnAllKernels(t *testing.T) {
	for _, app := range apps.All() {
		nodes := app.NodeCounts[0]
		for _, kt := range []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS} {
			r := run(t, Job{App: app, Kernel: kt, Nodes: nodes, Seed: 1})
			if r.FOM <= 0 {
				t.Fatalf("%s on %v: FOM %v", app.Name, kt, r.FOM)
			}
		}
	}
}

func TestTraceRecordsSteps(t *testing.T) {
	app := apps.MILC()
	r := run(t, Job{App: app, Kernel: kernel.TypeLinux, Nodes: 8, Seed: 3, Trace: true})
	if len(r.Steps) != app.Timesteps {
		t.Fatalf("%d step records, want %d", len(r.Steps), app.Timesteps)
	}
	var total sim.Duration
	for _, s := range r.Steps {
		if s.Total() <= 0 {
			t.Fatal("empty step record")
		}
		total += s.Total()
	}
	if total+r.Breakdown.SetupShm != r.Elapsed {
		t.Fatalf("step totals %v + shm %v != elapsed %v", total, r.Breakdown.SetupShm, r.Elapsed)
	}
	// No trace by default.
	plain := run(t, Job{App: app, Kernel: kernel.TypeLinux, Nodes: 8, Seed: 3})
	if plain.Steps != nil {
		t.Fatal("untraced run recorded steps")
	}
}

// TestHeapOpsPerStepCalledOnce is the regression test for the hot-loop bug:
// HeapOpsPerStep depends only on the node count, yet it used to be invoked
// inside the per-rank loop of every timestep (ranks x timesteps calls
// rebuilding an identical trace slice). The counting stub pins the contract
// to exactly one lookup per run.
func TestHeapOpsPerStepCalledOnce(t *testing.T) {
	app := *apps.Lulesh()
	calls := 0
	inner := app.HeapOpsPerStep
	app.HeapOpsPerStep = func(nodes int) []int64 {
		calls++
		return inner(nodes)
	}
	r := run(t, Job{App: &app, Kernel: kernel.TypeLinux, Nodes: 2, Seed: 5})
	if calls != 1 {
		t.Fatalf("HeapOpsPerStep called %d times over %d timesteps x %d ranks, want 1",
			calls, app.Timesteps, r.Ranks)
	}
	if r.Breakdown.Heap <= 0 {
		t.Fatal("hoisted trace produced no heap time")
	}
}

// TestHeapCountersExactWhenMemoized: every kernel's node reaches its
// memory fixed point within two steps and the step loop then skips the
// replay, yet a counting run must still report every brk call of every
// rank and step — the counters equal the per-step trace replayed ranks ×
// timesteps times. Linux steps fault and zero pages, and reach the heap's
// peak (a max-style counter a scaled merge must not sum): heap.faults and
// heap.zeroed_bytes are timesteps times one step's, and heap.peak_bytes is
// the trace's own peak. A Linux run replays at most two steps per rank:
// the first, and the capture step after the fixed point.
func TestHeapCountersExactWhenMemoized(t *testing.T) {
	app := apps.Lulesh()
	const nodes = 8
	var queries, grows, shrinks, grown, size, peak int64
	for _, d := range app.HeapOpsPerStep(nodes) {
		switch {
		case d == 0:
			queries++
		case d > 0:
			grows++
			grown += d
			size += d
			peak = max(peak, size)
		default:
			shrinks++
			size -= min(-d, size)
		}
	}
	reps := int64(app.RanksPerNode * app.Timesteps)
	for _, kt := range []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS} {
		ctrs := trace.NewCounters()
		j := Job{App: app, Kernel: kt, Nodes: nodes, Seed: 3, Sink: trace.NewSink(ctrs, nil)}
		run(t, j)
		type check struct {
			name string
			want int64
		}
		checks := []check{
			{"heap.queries", reps * queries},
			{"heap.grows", reps * grows},
			{"heap.shrinks", reps * shrinks},
			{"heap.grown_bytes", reps * grown},
			{"heap.peak_bytes", peak},
			{"syscall.brk", reps * (queries + grows + shrinks)},
		}
		if kt == kernel.TypeLinux {
			step := replayHeap(t, j, 1, false).counters
			if step["heap.faults"] <= 0 || step["heap.zeroed_bytes"] <= 0 {
				t.Fatalf("a Linux step neither faults nor zeroes: %v", step)
			}
			steps := int64(app.Timesteps)
			checks = append(checks,
				check{"heap.faults", steps * step["heap.faults"]},
				check{"heap.zeroed_bytes", steps * step["heap.zeroed_bytes"]})
			if n := replayHeap(t, j, app.Timesteps, true).replayed; n > 2 {
				t.Errorf("linux: replayed %d of %d steps, want at most 2", n, app.Timesteps)
			}
		}
		for _, c := range checks {
			if got := ctrs.Get(c.name); got != c.want {
				t.Errorf("%v: %s = %d, want %d", kt, c.name, got, c.want)
			}
		}
	}
}

// TestHoistedTraceMatchesReference: the hoist must not change results — a
// spec whose trace function is pure gives identical output either way, so
// compare against the unmodified spec on the same seed.
func TestHoistedTraceMatchesReference(t *testing.T) {
	a := run(t, Job{App: apps.Lulesh(), Kernel: kernel.TypeMOS, Nodes: 4, Seed: 9})
	b := run(t, Job{App: apps.Lulesh(), Kernel: kernel.TypeMOS, Nodes: 4, Seed: 9})
	if a.Elapsed != b.Elapsed || a.Breakdown != b.Breakdown {
		t.Fatalf("hoisted trace not reproducible: %+v vs %+v", a.Breakdown, b.Breakdown)
	}
}

// TestHaloDetourComposesWithCollectives is the regression test for the
// dropped-halo bug: on a step with both a collective and a halo exchange,
// the old switch sampled only the collective's job-wide detour and silently
// discarded the halo neighbourhood's. With the fix, adding a halo exchange
// to an app whose collective fires every step must strictly increase the
// absorbed noise on the same seed (before the fix the draws were identical,
// so the noise breakdown did not move at all).
func TestHaloDetourComposesWithCollectives(t *testing.T) {
	mk := func(withHalo bool) *apps.Spec {
		app := *apps.MiniFE() // collectives run every step (CG solver)
		if !withHalo {
			app.Halo = nil
		} else if app.Halo == nil {
			t.Fatal("fixture app lost its halo exchange")
		}
		return &app
	}
	with := run(t, Job{App: mk(true), Kernel: kernel.TypeLinux, Nodes: 32, Seed: 21})
	without := run(t, Job{App: mk(false), Kernel: kernel.TypeLinux, Nodes: 32, Seed: 21})
	if with.Breakdown.Noise <= without.Breakdown.Noise {
		t.Fatalf("halo detour still dropped on collective steps: noise with halo %v <= without %v",
			with.Breakdown.Noise, without.Breakdown.Noise)
	}
}
