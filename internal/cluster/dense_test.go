package cluster

import (
	"context"
	"slices"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/fault"
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

// Every window at which runSteps draws a max-over-ranks detour and the
// profile gets a table for the image's largest rank count has one, and the
// calls at that rank count draw from it, with no silent fallback to
// colouring: for Linux jobs with and without the facility storm, every
// application at 1 to 64 nodes, each synchronising step whose window is
// tabled takes the table path for the rank count it was built for
// (tableRanks), and no other window has a table.
func TestDenseWindowsTabulated(t *testing.T) {
	plan := mustPlan(t, facilityStormPlan)
	tabled := 0
	for _, faults := range []*fault.Plan{nil, plan} {
		for _, app := range apps.All() {
			for _, nodes := range []int{1, 4, 16, 32, 64} {
				img, err := Prepare(context.Background(), Job{App: app, Kernel: kernel.TypeLinux, Nodes: nodes, Faults: faults})
				if err != nil {
					t.Fatal(err)
				}
				prof := img.prof
				ranks := img.tableRanks()
				windows, _ := img.tableWindows()
				for step := range app.Timesteps {
					w := img.window(step)
					if w.collsDue == 0 && img.plan.haloWire == 0 {
						continue
					}
					want := prof.Tabled(w.base, ranks)
					if want != slices.Contains(windows, w.base) {
						t.Fatalf("%s on %d nodes, step %d: window %v listed %v, Tabled %v",
							app.Name, nodes, step, w.base, !want, want)
					}
					if !want {
						continue
					}
					tabled++
					if !tablePath(prof, ranks, w.base) {
						t.Fatalf("%s on %d nodes, step %d: window %v is tabled but K=%d colours",
							app.Name, nodes, step, w.base, ranks)
					}
				}
			}
		}
	}
	if tabled == 0 {
		t.Fatal("no synchronising step had a tabled window: the check is vacuous")
	}
}

// Every table a cell of Figure 4, the scheduler sweep or the tables builds
// resolves the rank count it was built for, the largest its image's steps
// draw a maximum over: each such call takes the table. Without a daemon
// storm no core-1 source is dense at a synchronising step's window (the
// densest, LinuxTuned's residual tick and kworker, have a 100 ms period),
// so the tables are those of collectives over 256 to 1,024 ranks that
// expect tableEvents detour events per call, and of every collective over
// more than 1,024 ranks whose maximum the grid resolves. Above 1,024 ranks
// every Linux collective draws from a table; the windows left to colouring
// there are the lightweight kernels' few whose maximum is likely 0
// (logged). The cells are every application on every kernel at each of
// its node counts, under every scheduling policy for the sweep's
// applications, and the single- and few-node jobs of Table I, the brk
// traces, the proxy options, the MCDRAM spill, the quadrant comparison and
// core specialisation.
func TestPaperCellTablesResolved(t *testing.T) {
	var longest sim.Duration
	tables, coloured := 0, 0
	check := func(j Job) {
		t.Helper()
		img, err := Prepare(context.Background(), j)
		if err != nil {
			t.Fatalf("%s on %v at %d nodes: %v", j.App.Name, j.Kernel, j.Nodes, err)
		}
		ws, _ := img.tableWindows()
		tables += len(ws)
		k := img.tableRanks()
		for _, w := range ws {
			if img.prof.Dense(w) {
				t.Errorf("%s on %v/%s at %d nodes: dense window %v", j.App.Name, j.Kernel, j.Sched, j.Nodes, w)
			}
			if !tablePath(img.prof, k, w) {
				t.Errorf("%s on %v/%s at %d nodes: the table at %v does not resolve K=%d",
					j.App.Name, j.Kernel, j.Sched, j.Nodes, w, k)
			}
		}
		for step := range j.App.Timesteps {
			win := img.window(step)
			longest = max(longest, win.base)
			// k is above 1,024 only for images whose steps run collectives.
			if k <= 1024 || win.collsDue == 0 || slices.Contains(ws, win.base) {
				continue
			}
			if j.Kernel == kernel.TypeLinux {
				t.Errorf("%s on Linux/%s at %d nodes, step %d: a collective over %d ranks at %v colours",
					j.App.Name, j.Sched, j.Nodes, step, k, win.base)
			}
			coloured++
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
	if tables == 0 {
		t.Error("no paper cell built a table: the check is vacuous")
	}
	t.Logf("%d tables; %d collective steps above 1,024 ranks colour; longest step window: %v",
		tables, coloured, longest)
}
