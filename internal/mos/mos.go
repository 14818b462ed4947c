// Package mos models Intel's mOS: an LWK compiled directly into the Linux
// kernel. Offloading works by migrating the issuing thread into Linux
// (mOS "retains Linux kernel compatibility at the level of its internal
// kernel data structures; e.g., the task_struct"), which makes the offload
// path cheaper than a proxy round trip and lets tools, ptrace and the
// pseudo filesystems reuse Linux wholesale. The trade-offs the paper
// reports are modelled faithfully: early-boot contiguous memory grabbing,
// rigid upfront physical allocation (no demand-paging fallback), a
// partially implemented fork, and a runtime-toggleable HPC heap.
package mos

import (
	"fmt"

	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/mem"
	"mklite/internal/noise"
	"mklite/internal/sched"
)

// Config tunes an mOS boot.
type Config struct {
	// OSCores stay with the Linux side (paper: 4).
	OSCores int
	// MemFraction of each NUMA domain is grabbed for the LWK at early
	// boot, before Linux places unmovable structures.
	MemFraction float64
	// HeapManagement enables the HPC heap optimisations ("in mOS this
	// feature can be toggled by a runtime option") — Table I's subject.
	HeapManagement bool
	// LinuxReservation is the Linux side's own footprint, reserved
	// *after* the LWK grab.
	LinuxReservation int64
	// Sched selects the scheduling policy of LWK cores; empty means the
	// mOS default (sched.Coop, cooperative run-to-completion).
	Sched sched.Kind
}

// DefaultConfig is the paper's deployment configuration.
func DefaultConfig() Config {
	return Config{
		OSCores:          4,
		MemFraction:      0.95,
		HeapManagement:   true,
		LinuxReservation: 2 * hw.GiB,
	}
}

// Kernel is the mOS model.
type Kernel struct {
	kernel.Base
	cfg Config
	// domains is the MCDRAM-then-DDR4 order every mapping and default heap
	// starts from, derived once at boot. Policies hand out this slice
	// itself; its capacity equals its length, so a caller's append copies.
	domains []int
}

// Boot constructs an mOS node. Unlike McKernel, the LWK memory is taken
// from pristine domains before the (modelled) Linux reservation fragments
// them — "mOS can grab large contiguous physical memory blocks early
// during the boot sequence".
func Boot(node *hw.NodeSpec, cfg Config) (*Kernel, error) {
	if err := node.Validate(); err != nil {
		return nil, fmt.Errorf("mos: %w", err)
	}
	if cfg.MemFraction <= 0 || cfg.MemFraction > 1 {
		return nil, fmt.Errorf("mos: bad MemFraction %v", cfg.MemFraction)
	}
	part, err := kernel.DefaultPartition(node, cfg.OSCores)
	if err != nil {
		return nil, fmt.Errorf("mos: %w", err)
	}
	// Early grab: carve the LWK share out of each untouched domain in
	// the largest extents possible (1 GiB aligned).
	whole := mem.NewPhys(node)
	var grants []mem.Extent
	for _, d := range node.Domains {
		want := int64(float64(d.Mem.Capacity)*cfg.MemFraction) / int64(hw.Page2M) * int64(hw.Page2M)
		if want == 0 {
			continue
		}
		// Largest blocks first (1 GiB aligned for gigabyte pages),
		// then 2 MiB granules for the remainder of the share.
		exts, got := whole.AllocUpTo(d.ID, want/int64(hw.Page1G)*int64(hw.Page1G), int64(hw.Page1G))
		if rest := want - got; rest > 0 {
			more, _ := whole.AllocUpTo(d.ID, rest, int64(hw.Page2M))
			exts = append(exts, more...)
		}
		if len(exts) == 0 {
			return nil, fmt.Errorf("mos: domain %d yielded no early-boot memory", d.ID)
		}
		grants = append(grants, exts...)
	}
	// Linux's own footprint lands in whatever remains (it cannot
	// fragment the LWK's blocks).
	if cfg.LinuxReservation > 0 {
		ddr := node.DomainsOfKind(hw.DDR4)
		per := cfg.LinuxReservation / int64(len(ddr))
		for _, d := range ddr {
			whole.AllocUpTo(d, per, int64(hw.Page4K))
		}
	}
	kind := cfg.Sched
	if kind == "" {
		kind = sched.Coop
	}
	pol, err := kernel.NewPolicy(kind, kernel.MOSCosts())
	if err != nil {
		return nil, fmt.Errorf("mos: %w", err)
	}
	k := &Kernel{
		Base: kernel.Base{
			KName:  "mos",
			KType:  kernel.TypeMOS,
			KCaps:  caps(),
			KTable: table(),
			KCosts: kernel.MOSCosts(),
			KNoise: noise.MOSProfile(),
			KPart:  part,
			KPhys:  mem.NewPhysView(node, grants),
			KSched: pol,
		},
		cfg:     cfg,
		domains: node.DomainsOfKind(hw.MCDRAM, hw.DDR4),
	}
	return k, nil
}

// table: the LWK implements memory management and scheduling natively; the
// tight Linux integration lets everything else migrate into Linux — even
// move_pages and the misc facilities McKernel rejects.
func table() *kernel.Table {
	t := kernel.NewTable(kernel.Offloaded)
	t.SetClass(kernel.ClassMemory, kernel.Native)
	t.SetClass(kernel.ClassThread, kernel.Native)
	t.SetClass(kernel.ClassSched, kernel.Native)
	t.SetClass(kernel.ClassSignal, kernel.Native)
	t.SetAll([]kernel.Sysno{
		kernel.SysGetpid, kernel.SysGettid, kernel.SysClone,
		kernel.SysExit, kernel.SysExitGroup,
		kernel.SysClockGettime, kernel.SysGettimeofday,
	}, kernel.Native)
	// move_pages migrates to Linux and works — unlike McKernel's WIP.
	t.Set(kernel.SysMovePages, kernel.Offloaded)
	// fork is "not fully implemented yet": the call exists but its
	// semantics are incomplete (captured by the missing CapFullFork).
	t.Set(kernel.SysFork, kernel.Offloaded)
	return t
}

func caps() kernel.CapSet {
	return kernel.CapSet{}.With(
		kernel.CapMovePages,
		kernel.CapLinuxMisc,        // perf/userfaultfd/... reuse Linux
		kernel.CapProcSysFull,      // pseudo filesystems reused
		kernel.CapToolsOnLinuxSide, // debuggers stay on Linux cores
		kernel.CapEarlyBootMemory,
	)
	// Absent: CapFullFork (incomplete), CapPtraceFull (4 of 5 LTP
	// ptrace variants fail), CapBrkShrinkReleases (HPC heap),
	// CapExoticCloneFlags, CapDemandPagingFallback (rigid allocation),
	// CapTimeSharing.
}

// Config returns the boot configuration.
func (k *Kernel) Config() Config { return k.cfg }

// MapPolicy implements kernel.Kernel: MCDRAM first with transparent DDR4
// spill and the largest pages available, strictly upfront — "The current
// version of mOS is more rigid: Only physically available memory can be
// allocated."
func (k *Kernel) MapPolicy(kind mem.VMAKind) mem.Policy {
	return mem.Policy{
		Domains: k.domains,
		MaxPage: hw.Page1G,
	}
}

// NewHeap implements kernel.Kernel, honouring the heap-management toggle.
func (k *Kernel) NewHeap(as *mem.AddrSpace, limit int64, domains []int) (mem.Heap, error) {
	if domains == nil {
		domains = k.domains
	}
	if k.cfg.HeapManagement {
		return mem.NewHPCHeap(as, limit, mem.DefaultHPCHeapConfig(domains))
	}
	// Heap management disabled: mOS shares the Linux kernel, so the
	// fallback is the stock Linux heap (demand paged, THP eligible).
	return mem.NewLinuxHeap(as, limit, domains, true)
}

var _ kernel.Kernel = (*Kernel)(nil)
