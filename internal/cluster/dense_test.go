package cluster

import (
	"context"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/kernel"
	"mklite/internal/linuxos"
	"mklite/internal/mckernel"
	"mklite/internal/mos"
	"mklite/internal/noise"
	"mklite/internal/sched"
	"mklite/internal/sim"
)

// facilityStormPlan is the daemon storm of fleet.DefaultInterference: 2 ms
// period, 150 µs bursts, CV 0.5. Its per-rank λ reaches 1 at a 2 ms window.
const facilityStormPlan = "storm:period=2ms,burst=150us,cv=0.5,offload=2"

// tablePath reports whether MaxDetourRank takes the table path for ranks
// ranks at window: that path draws exactly two uniforms, where colouring
// and the order statistic draw at least one per source of a Linux profile.
func tablePath(p *noise.Profile, ranks int, window sim.Duration) bool {
	rng, ref := sim.NewRNG(uint64(window)), sim.NewRNG(uint64(window))
	noise.MaxDetourRank(rng, p, ranks, window)
	ref.Uint64()
	ref.Uint64()
	return rng.Uint64() == ref.Uint64()
}

// Every window at which runSteps draws a max-over-ranks detour from a dense
// profile has a table, with no silent fallback to colouring: for Linux
// jobs under the facility storm, every application at 1 to 64 nodes, each
// synchronising step whose window is dense takes the table path, for the
// job's rank count and for the halo neighbourhood.
func TestDenseWindowsTabulated(t *testing.T) {
	plan := mustPlan(t, facilityStormPlan)
	dense := 0
	for _, app := range apps.All() {
		for _, nodes := range []int{1, 4, 16, 32, 64} {
			img, err := Prepare(context.Background(), Job{App: app, Kernel: kernel.TypeLinux, Nodes: nodes, Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			prof := img.prof.Clone()
			ranks := img.comm.Ranks()
			for step := range app.Timesteps {
				w := img.window(step)
				if w.collsDue == 0 && img.plan.haloWire == 0 || !prof.Dense(w.base) {
					continue
				}
				dense++
				for _, k := range []int{ranks, min(haloNeighborhood, ranks)} {
					if !tablePath(prof, k, w.base) {
						t.Fatalf("%s on %d nodes, step %d: window %v is dense but has no table (K=%d)",
							app.Name, nodes, step, w.base, k)
					}
				}
			}
		}
	}
	if dense == 0 {
		t.Fatal("no synchronising step had a dense window: the check is vacuous")
	}
}

// No table is built for a cell of Figure 4, the scheduler sweep or the
// tables: without a daemon storm the densest core-1 source is LinuxTuned's
// residual tick and kworker (100 ms period; the LWKs' are 1 s and 5 s), and
// no synchronising step of those cells lasts that long. The cells are every
// application on every kernel at each of its node counts, under every
// scheduling policy for the sweep's applications, and the single- and
// few-node jobs of Table I, the brk traces, the proxy options, the MCDRAM
// spill, the quadrant comparison and core specialisation.
func TestNoTablesForPaperCells(t *testing.T) {
	var longest sim.Duration
	check := func(j Job) {
		t.Helper()
		img, err := Prepare(context.Background(), j)
		if err != nil {
			t.Fatalf("%s on %v at %d nodes: %v", j.App.Name, j.Kernel, j.Nodes, err)
		}
		if ws, _ := img.denseWindows(); len(ws) > 0 {
			t.Errorf("%s on %v/%s at %d nodes: tables at windows %v", j.App.Name, j.Kernel, j.Sched, j.Nodes, ws)
		}
		for step := range j.App.Timesteps {
			longest = max(longest, img.window(step).base)
		}
	}
	sweep := map[string]bool{apps.MiniFE().Name: true, apps.LAMMPS().Name: true}
	for _, app := range apps.All() {
		for _, bk := range benchKernels {
			for _, nodes := range app.NodeCounts {
				check(Job{App: app, Kernel: bk.kt, Nodes: nodes})
				if sweep[app.Name] {
					for _, kind := range sched.Kinds() {
						check(Job{App: app, Kernel: bk.kt, Nodes: nodes, Sched: kind})
					}
				}
			}
		}
	}
	heapOff := mos.DefaultConfig()
	heapOff.HeapManagement = false
	lin68 := linuxos.DefaultConfig()
	lin68.OSCores = 0
	mck := mckernel.DefaultOptions()
	mck.MpolShmPremap = true
	mck.DisableSchedYield = true
	lulesh, qcd := apps.Lulesh(), apps.CCSQCD()
	for _, j := range []Job{
		{App: lulesh, Kernel: kernel.TypeLinux, Nodes: 1, ForceDDROnly: true},
		{App: lulesh, Kernel: kernel.TypeMOS, Nodes: 1, ForceDDROnly: true, MOS: &heapOff},
		{App: lulesh, Kernel: kernel.TypeMOS, Nodes: 1, ForceDDROnly: true},
		{App: lulesh, Kernel: kernel.TypeLinux, Nodes: 1},
		{App: lulesh, Kernel: kernel.TypeMcKernel, Nodes: 1},
		{App: lulesh, Kernel: kernel.TypeMOS, Nodes: 1},
		{App: lulesh, Kernel: kernel.TypeLinux, Nodes: 1, Linux: &lin68},
		{App: apps.AMG2013(), Kernel: kernel.TypeMcKernel, Nodes: 16, McK: &mck},
		{App: apps.MiniFE(), Kernel: kernel.TypeMcKernel, Nodes: 16, McK: &mck},
		{App: qcd, Kernel: kernel.TypeMcKernel, Nodes: 2048, ForceDDROnly: true},
		{App: qcd, Kernel: kernel.TypeLinux, Nodes: 64, Quadrant: true},
	} {
		check(j)
	}
	t.Logf("longest step window: %v", longest)
}
