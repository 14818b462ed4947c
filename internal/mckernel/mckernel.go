// Package mckernel models IHK/McKernel: a lightweight kernel developed from
// scratch that boots from IHK, retains a Linux-binary-compatible ABI, and
// natively implements only the performance-sensitive system calls — memory
// management, multi-processing/threading, a simple cooperative scheduler
// and signals. Everything else is offloaded to Linux through the
// per-process proxy: "For every single process running on McKernel there is
// a process spawned on Linux, called the proxy process."
package mckernel

import (
	"fmt"

	"mklite/internal/hw"
	"mklite/internal/ihk"
	"mklite/internal/kernel"
	"mklite/internal/linuxos"
	"mklite/internal/mem"
	"mklite/internal/noise"
	"mklite/internal/sched"
	"mklite/internal/sim"
)

// Options are the per-job tunables the paper exercises, mirroring the
// mcexec/proxy command line.
type Options struct {
	// HPCBrk selects the HPC-optimised heap ("in McKernel it is
	// currently implemented in a separate branch, but IHK allows
	// booting different kernel images per application").
	HPCBrk bool
	// MpolShmPremap pre-maps shared-memory sections used by MPI for
	// intra-node communication ("--mpol-shm-premap ... helps avoiding
	// contention in the page fault handler").
	MpolShmPremap bool
	// DisableSchedYield hijacks glibc's sched_yield via an injected
	// shared library and turns it into a no-op, eliminating user/kernel
	// mode switches ("--disable-sched-yield").
	DisableSchedYield bool
	// TimeSharingCores optionally enables time sharing, "but ... only
	// on specific CPU cores".
	TimeSharingCores []int
	// Sched selects the scheduling policy of LWK cores; empty means the
	// McKernel default (sched.Coop, the cooperative run-to-completion
	// scheduler the paper describes).
	Sched sched.Kind
}

// DefaultOptions is the configuration used for the paper's headline runs.
func DefaultOptions() Options {
	return Options{HPCBrk: true}
}

// Kernel is the McKernel model.
type Kernel struct {
	kernel.Base
	opts Options
	// domains is the MCDRAM-then-DDR4 order every mapping and default heap
	// starts from, derived once at boot. Policies hand out this slice
	// itself; its capacity equals its length, so a caller's append copies.
	domains []int
}

// Boot starts McKernel on an IHK grant carved from the given Linux.
func Boot(lin *linuxos.Kernel, g *ihk.Grant, opts Options) (*Kernel, error) {
	if g == nil || g.Phys == nil {
		return nil, fmt.Errorf("mckernel: boot without an IHK grant")
	}
	kind := opts.Sched
	if kind == "" {
		kind = sched.Coop
	}
	pol, err := kernel.NewPolicy(kind, kernel.McKernelCosts())
	if err != nil {
		return nil, fmt.Errorf("mckernel: %w", err)
	}
	k := &Kernel{
		Base: kernel.Base{
			KName:  "mckernel",
			KType:  kernel.TypeMcKernel,
			KCaps:  caps(),
			KTable: table(),
			KCosts: kernel.McKernelCosts(),
			KNoise: noise.McKernelProfile(),
			KPart:  g.Part,
			KPhys:  g.Phys,
			KSched: pol,
		},
		opts:    opts,
		domains: g.Part.Node.DomainsOfKind(hw.MCDRAM, hw.DDR4),
	}
	return k, nil
}

// Deploy is the one-call path used by the harness: boot Linux, reserve
// resources through IHK, boot McKernel.
func Deploy(node *hw.NodeSpec, opts Options) (*Kernel, *linuxos.Kernel, error) {
	lin, err := linuxos.Boot(node, linuxos.DefaultConfig())
	if err != nil {
		return nil, nil, fmt.Errorf("mckernel: booting host linux: %w", err)
	}
	g, err := ihk.Reserve(lin, ihk.DefaultReserveOptions())
	if err != nil {
		return nil, nil, fmt.Errorf("mckernel: ihk reservation: %w", err)
	}
	k, err := Boot(lin, g, opts)
	if err != nil {
		return nil, nil, err
	}
	return k, lin, nil
}

// table builds the syscall dispositions: the small performance-sensitive
// set is native, move_pages is work-in-progress (unsupported), a tail of
// Linux-specific facilities is intentionally unsupported for HPC, and
// everything else offloads to the proxy.
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
	// Work in progress (section III-D: "Eleven of the 32 failing
	// experiments attempt to test various combinations of the
	// move_pages() system call, which is work in progress").
	t.Set(kernel.SysMovePages, kernel.Unsupported)
	// Intentionally unsupported, "mainly because of the nature of HPC
	// workloads".
	t.SetAll([]kernel.Sysno{
		kernel.SysPerfEventOpen, kernel.SysUserfaultfd, kernel.SysSeccomp,
		kernel.SysMemfdCreate, kernel.SysMigratePages, kernel.SysPersonality,
	}, kernel.Unsupported)
	return t
}

func caps() kernel.CapSet {
	return kernel.CapSet{}.With(
		kernel.CapFullFork, // multiprocessing is supported (via proxy)
		kernel.CapPtraceFull,
		kernel.CapDemandPagingFallback,
		kernel.CapTimeSharing,
	)
	// Absent: CapBrkShrinkReleases (HPC heap retains memory),
	// CapMovePages (WIP), CapExoticCloneFlags, CapLinuxMisc,
	// CapProcSysFull (subset only), CapToolsOnLinuxSide (tools must run
	// on LWK cores in the proxy model), CapEarlyBootMemory (boots after
	// Linux).
}

// MapPolicy implements kernel.Kernel: MCDRAM first with transparent DDR4
// spill, the largest pages the grant's contiguity allows, physical backing
// at map time — with McKernel's distinctive automatic fallback to demand
// paging "to allow best effort allocation from the specific NUMA domain
// when enough physical memory is not available".
func (k *Kernel) MapPolicy(kind mem.VMAKind) mem.Policy {
	pol := mem.Policy{
		Domains:        k.domains,
		MaxPage:        hw.Page1G,
		FallbackDemand: true,
	}
	if kind == mem.VMAShared && !k.opts.MpolShmPremap {
		// Without --mpol-shm-premap the MPI shared-memory windows
		// are demand paged and fault under contention.
		pol.Demand = true
	}
	return pol
}

// NewHeap implements kernel.Kernel.
func (k *Kernel) NewHeap(as *mem.AddrSpace, limit int64, domains []int) (mem.Heap, error) {
	if domains == nil {
		domains = k.domains
	}
	if k.opts.HPCBrk {
		return mem.NewHPCHeap(as, limit, mem.DefaultHPCHeapConfig(domains))
	}
	// The non-optimised branch behaves like a plain demand-paged heap
	// (Linux-equivalent semantics, huge pages where alignment allows).
	return mem.NewLinuxHeap(as, limit, domains, true)
}

// SyscallTime implements kernel.Kernel, honouring --disable-sched-yield:
// the hijacked call never enters the kernel.
func (k *Kernel) SyscallTime(n kernel.Sysno) sim.Duration {
	if n == kernel.SysSchedYield && k.opts.DisableSchedYield {
		return 0
	}
	return k.Base.SyscallTime(n)
}

var _ kernel.Kernel = (*Kernel)(nil)
