package mckernel

import (
	"testing"

	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/mem"
)

func deploy(t *testing.T, opts Options) *Kernel {
	t.Helper()
	k, _, err := Deploy(hw.KNL7250SNC4(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestDeployIdentity(t *testing.T) {
	k := deploy(t, DefaultOptions())
	if k.Type() != kernel.TypeMcKernel {
		t.Fatal("type")
	}
	if k.Sched().Preemptive() {
		t.Fatal("McKernel default scheduler must be cooperative")
	}
	if len(k.Partition().AppCores) != 64 {
		t.Fatalf("app cores = %d", len(k.Partition().AppCores))
	}
}

func TestBootRequiresGrant(t *testing.T) {
	_, lin, err := Deploy(hw.KNL7250SNC4(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Boot(lin, nil, DefaultOptions()); err == nil {
		t.Fatal("boot without grant accepted")
	}
}

func TestSyscallDispositions(t *testing.T) {
	k := deploy(t, DefaultOptions())
	tb := k.Table()
	native := []kernel.Sysno{
		kernel.SysBrk, kernel.SysMmap, kernel.SysMunmap, kernel.SysFutex,
		kernel.SysSchedYield, kernel.SysClone, kernel.SysGetpid,
		kernel.SysRtSigaction, kernel.SysSetMempolicy,
	}
	for _, n := range native {
		if tb.Get(n) != kernel.Native {
			t.Fatalf("%v should be native", n)
		}
	}
	offloaded := []kernel.Sysno{
		kernel.SysOpen, kernel.SysRead, kernel.SysWrite, kernel.SysIoctl,
		kernel.SysSocket, kernel.SysFork, kernel.SysExecve, kernel.SysUname,
	}
	for _, n := range offloaded {
		if tb.Get(n) != kernel.Offloaded {
			t.Fatalf("%v should be offloaded, got %v", n, tb.Get(n))
		}
	}
	if tb.Get(kernel.SysMovePages) != kernel.Unsupported {
		t.Fatal("move_pages should be unsupported (work in progress)")
	}
}

func TestOnlySmallNativeSet(t *testing.T) {
	// "It implements only a small set of performance sensitive system
	// calls. The rest are offloaded to Linux."
	k := deploy(t, DefaultOptions())
	native := k.Table().Count(kernel.Native)
	off := k.Table().Count(kernel.Offloaded)
	if native >= off {
		t.Fatalf("native %d >= offloaded %d; the native set must be small", native, off)
	}
}

func TestOffloadCostsMoreThanNative(t *testing.T) {
	k := deploy(t, DefaultOptions())
	if k.SyscallTime(kernel.SysOpen) <= k.SyscallTime(kernel.SysBrk) {
		t.Fatal("offloaded call should cost more than native")
	}
}

func TestMapPolicyMCDRAMFirstWithFallback(t *testing.T) {
	k := deploy(t, DefaultOptions())
	pol := k.MapPolicy(mem.VMAAnon)
	node := k.Partition().Node
	d0, _ := node.Domain(pol.Domains[0])
	if d0.Mem.Kind != hw.MCDRAM {
		t.Fatalf("first preference %v, want MCDRAM", pol.Domains)
	}
	if !pol.FallbackDemand {
		t.Fatal("McKernel must fall back to demand paging")
	}
	if pol.Demand {
		t.Fatal("default mappings are upfront")
	}
	if pol.MaxPage != hw.Page1G {
		t.Fatal("LWKs use up to 1GiB pages")
	}
}

func TestShmPolicyHonoursPremapOption(t *testing.T) {
	plain := deploy(t, DefaultOptions())
	if !plain.MapPolicy(mem.VMAShared).Demand {
		t.Fatal("without premap, shm should be demand paged")
	}
	opts := DefaultOptions()
	opts.MpolShmPremap = true
	premap := deploy(t, opts)
	if premap.MapPolicy(mem.VMAShared).Demand {
		t.Fatal("premap option should map shm upfront")
	}
}

func TestHeapSelection(t *testing.T) {
	hpc := deploy(t, DefaultOptions())
	as := mem.NewAddrSpace(hpc.Phys())
	h, err := hpc.NewHeap(as, hw.GiB, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Sbrk(4 * hw.MiB)
	if w := h.TouchUpTo(4 * hw.MiB); w.Faults != 0 {
		t.Fatal("HPC heap faulted")
	}

	opts := DefaultOptions()
	opts.HPCBrk = false
	plain := deploy(t, opts)
	as2 := mem.NewAddrSpace(plain.Phys())
	h2, err := plain.NewHeap(as2, hw.GiB, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2.Sbrk(4 * hw.MiB)
	if w := h2.TouchUpTo(4 * hw.MiB); w.Faults == 0 {
		t.Fatal("non-optimised heap did not fault")
	}
}

func TestDisableSchedYield(t *testing.T) {
	opts := DefaultOptions()
	opts.DisableSchedYield = true
	k := deploy(t, opts)
	if k.SyscallTime(kernel.SysSchedYield) != 0 {
		t.Fatal("hijacked sched_yield should be free")
	}
	plain := deploy(t, DefaultOptions())
	if plain.SyscallTime(kernel.SysSchedYield) == 0 {
		t.Fatal("plain sched_yield should cost a trap")
	}
}

func TestCaps(t *testing.T) {
	k := deploy(t, DefaultOptions())
	if !k.Caps().Has(kernel.CapFullFork) || !k.Caps().Has(kernel.CapDemandPagingFallback) {
		t.Fatal("missing capabilities")
	}
	for _, c := range []kernel.Capability{
		kernel.CapBrkShrinkReleases, kernel.CapMovePages,
		kernel.CapExoticCloneFlags, kernel.CapLinuxMisc,
		kernel.CapEarlyBootMemory, kernel.CapToolsOnLinuxSide,
	} {
		if k.Caps().Has(c) {
			t.Fatalf("McKernel should lack %v", c)
		}
	}
}

func TestLWKMemoryComesFromGrant(t *testing.T) {
	k := deploy(t, DefaultOptions())
	// The LWK's MCDRAM capacity is large but below the raw 4 GiB per
	// domain (Linux kept a share).
	for d := 4; d < 8; d++ {
		c := k.Phys().Capacity(d)
		if c == 0 || c >= 4*hw.GiB {
			t.Fatalf("domain %d grant capacity %d", d, c)
		}
	}
}

func TestNoiseIsQuiet(t *testing.T) {
	k := deploy(t, DefaultOptions())
	if k.Noise().ExpectedRate(1) > 1e-5 {
		t.Fatalf("McKernel noise rate %v too high", k.Noise().ExpectedRate(1))
	}
}
