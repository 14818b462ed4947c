package cluster

import (
	"context"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/kernel"
)

// benchKernels are the three kernels every node-construction benchmark and
// budget covers, in a fixed order.
var benchKernels = []struct {
	name string
	kt   kernel.Type
}{
	{"linux", kernel.TypeLinux},
	{"mckernel", kernel.TypeMcKernel},
	{"mos", kernel.TypeMOS},
}

// BenchmarkBoot measures one kernel boot on a fresh KNL SNC-4 node, the
// per-image cost Prepare pays before any rank exists.
func BenchmarkBoot(b *testing.B) {
	for _, bk := range benchKernels {
		b.Run(bk.name, func(b *testing.B) {
			j := Job{App: apps.MiniFE(), Kernel: bk.kt, Nodes: 1}.normalized()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := bootKernel(j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSetupNode measures laying out one 64-rank node (address spaces,
// working sets, heaps, shm windows, first touch and per-rank memory service
// times) for MiniFE and LAMMPS on each kernel. The boot each iteration needs
// runs outside the timer.
func BenchmarkSetupNode(b *testing.B) {
	for _, app := range []*apps.Spec{apps.MiniFE(), apps.LAMMPS()} {
		for _, bk := range benchKernels {
			b.Run(app.Name+"/"+bk.name, func(b *testing.B) {
				j := Job{App: app, Kernel: bk.kt, Nodes: 64, Seed: 1}.normalized()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					k, err := bootKernel(j)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := setupNode(k, j); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestSetupNodeAllocs is the allocation budget of node construction: heap
// allocations per rank of setupNode (boot excluded) for a 64-rank MiniFE and
// LAMMPS node on each kernel. Every topology fact (domain orders, home
// domains, mapping policies) is derived once per node or quadrant, so what
// remains per rank is that rank's own state: its address space, VMAs,
// backings and heap. The bound is the count measured when the budget was
// set plus one allocation per rank of headroom; re-deriving the NUMA orders
// per rank costs about two more. For reference, deriving the orders per rank
// cost 80-100 allocations per rank: minife 100.4 (linux), 80.4 (mckernel),
// 83.4 (mos); lammps 92.3, 80.5, 83.5.
func TestSetupNodeAllocs(t *testing.T) {
	const headroom = 1.0
	budget := map[string]float64{
		"minife/linux": 15.5, "minife/mckernel": 11.5, "minife/mos": 11.6,
		"lammps/linux": 14.3, "lammps/mckernel": 11.6, "lammps/mos": 11.6,
	}
	for _, app := range []*apps.Spec{apps.MiniFE(), apps.LAMMPS()} {
		for _, bk := range benchKernels {
			name := app.Name + "/" + bk.name
			j := Job{App: app, Kernel: bk.kt, Nodes: 64, Seed: 1}.normalized()
			boot := testing.AllocsPerRun(3, func() {
				if _, err := bootKernel(j); err != nil {
					t.Fatal(err)
				}
			})
			both := testing.AllocsPerRun(3, func() {
				k, err := bootKernel(j)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := setupNode(k, j); err != nil {
					t.Fatal(err)
				}
			})
			perRank := (both - boot) / float64(app.RanksPerNode)
			if limit := budget[name] + headroom; perRank > limit {
				t.Errorf("%s: setupNode allocates %.2f times per rank, budget %.2f", name, perRank, limit)
			}
		}
	}
}

// BenchmarkPrepare measures building one 64-node Lulesh image on each
// kernel: boot, node setup and the heap phase replayed to its fixed point —
// the seed-free work a measurement pays once per cell.
func BenchmarkPrepare(b *testing.B) {
	for _, bk := range benchKernels {
		b.Run("lulesh-"+bk.name, func(b *testing.B) {
			j := Job{App: apps.Lulesh(), Kernel: bk.kt, Nodes: 64}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Prepare(context.Background(), j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkImageRun measures one seeded run of a 64-node Lulesh image on
// each kernel — the timestep loop every repetition pays: scheduler state,
// noise draws, the recorded heap phase and step composition. The image is
// prepared once, outside the timer.
func BenchmarkImageRun(b *testing.B) {
	for _, bk := range benchKernels {
		b.Run("lulesh-"+bk.name, func(b *testing.B) {
			img, err := Prepare(context.Background(), Job{App: apps.Lulesh(), Kernel: bk.kt, Nodes: 64})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			seed := uint64(0)
			for b.Loop() {
				seed++
				if _, err := img.Run(context.Background(), seed, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestLuleshRunAllocs is the allocation budget of a whole Lulesh run
// (boot, setup and 40 timesteps) on each kernel: the count measured
// before the node-level heap memo replaced the per-rank one, less the
// one list allocation per rank that address spaces no longer make (48 to
// 51 a run, net of the max-of-K tables the run's collectives over 4,096
// ranks now build). The memo's snapshot buffer is sized exactly
// once per state length, so a buffer that grows by appending — about ten
// more allocations a run — fails here.
func TestLuleshRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not comparable with the budget")
	}
	budget := map[string]float64{"linux": 1543, "mckernel": 1076, "mos": 1031}
	for _, bk := range benchKernels {
		j := Job{App: apps.Lulesh(), Kernel: bk.kt, Nodes: 64, Seed: 1}
		got := testing.AllocsPerRun(3, func() {
			if _, err := Run(j); err != nil {
				t.Fatal(err)
			}
		})
		if got > budget[bk.name] {
			t.Errorf("%s: a Lulesh run allocates %.0f times, budget %.0f", bk.name, got, budget[bk.name])
		}
	}
}
