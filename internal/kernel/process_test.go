package kernel

import (
	"testing"

	"mklite/internal/hw"
	"mklite/internal/mem"
	"mklite/internal/noise"
	"mklite/internal/sched"
)

// testKernel builds a minimal concrete kernel for process tests.
type testKernel struct {
	Base
	demand bool
}

func (k *testKernel) MapPolicy(kind mem.VMAKind) mem.Policy {
	return mem.Policy{Domains: []int{0, 1, 2, 3}, MaxPage: hw.Page2M, Demand: k.demand}
}

func (k *testKernel) NewHeap(as *mem.AddrSpace, limit int64, domains []int) (mem.Heap, error) {
	if domains == nil {
		domains = []int{0, 1, 2, 3}
	}
	return mem.NewHPCHeap(as, limit, mem.DefaultHPCHeapConfig(domains))
}

func newTestKernel(t *testing.T) *testKernel {
	t.Helper()
	node := hw.KNL7250SNC4()
	part, err := DefaultPartition(node, 4)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(Native)
	tb.Set(SysMovePages, Unsupported)
	return &testKernel{Base: Base{
		KName:  "testk",
		KType:  TypeMcKernel,
		KCaps:  CapSet{},
		KTable: tb,
		KCosts: McKernelCosts(),
		KNoise: noise.McKernelProfile(),
		KPart:  part,
		KPhys:  mem.NewPhys(node),
		KSched: mustPolicy(t, sched.Coop, McKernelCosts()),
	}}
}

func mustPolicy(t *testing.T, kind sched.Kind, costs Costs) sched.Policy {
	t.Helper()
	pol, err := NewPolicy(kind, costs)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

func TestProcessMmapChargesWork(t *testing.T) {
	k := newTestKernel(t)
	p, _ := NewProcess(k, 1, hw.GiB)
	before := p.SyscallTime
	v, err := p.Mmap(64*hw.MiB, mem.VMAAnon)
	if err != nil {
		t.Fatal(err)
	}
	if v.Populated != 64*hw.MiB {
		t.Fatal("upfront mapping not populated")
	}
	// The charge includes zeroing 64 MiB: far more than a bare trap.
	if p.SyscallTime-before < 100*k.Costs().Trap {
		t.Fatalf("mmap cost %v implausibly low", p.SyscallTime-before)
	}
}

func TestProcessMprotect(t *testing.T) {
	k := newTestKernel(t)
	p, _ := NewProcess(k, 1, hw.GiB)
	v, _ := p.Mmap(8*hw.MiB, mem.VMAAnon)
	if _, err := p.Mprotect(v, 2*hw.MiB, 2*hw.MiB, mem.ProtRead); err != nil {
		t.Fatal(err)
	}
	if len(p.AS.VMAs()) < 3 {
		t.Fatal("mprotect did not split")
	}
	if p.Calls[SysMprotect] != 1 {
		t.Fatal("mprotect not counted")
	}
}

func TestProcessSbrk(t *testing.T) {
	k := newTestKernel(t)
	p, _ := NewProcess(k, 1, hw.GiB)
	size, err := p.Sbrk(4 * hw.MiB)
	if err != nil || size != 4*hw.MiB {
		t.Fatalf("sbrk: %d, %v", size, err)
	}
	if p.Calls[SysBrk] != 1 {
		t.Fatal("brk not counted")
	}
}

func TestProcessMovePagesUnsupported(t *testing.T) {
	k := newTestKernel(t) // table marks move_pages unsupported
	p, _ := NewProcess(k, 1, hw.GiB)
	v, _ := p.Mmap(8*hw.MiB, mem.VMAAnon)
	if _, err := p.MovePages(v, []int{4}); err == nil {
		t.Fatal("unsupported move_pages succeeded")
	}
	if p.Calls[SysMovePages] != 1 {
		t.Fatal("refused call not counted")
	}
}

func TestProcessMovePagesSupported(t *testing.T) {
	k := newTestKernel(t)
	k.KTable.Set(SysMovePages, Native)
	p, _ := NewProcess(k, 1, hw.GiB)
	v, _ := p.Mmap(8*hw.MiB, mem.VMAAnon)
	w, err := p.MovePages(v, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if w.CopiedBytes != 8*hw.MiB {
		t.Fatalf("copied %d", w.CopiedBytes)
	}
	if v.DomainsOf()[4] != 8*hw.MiB {
		t.Fatal("pages not in MCDRAM")
	}
}

func TestProcessExitReleasesMemory(t *testing.T) {
	k := newTestKernel(t)
	k.KTable.Set(SysMovePages, Native)
	p, _ := NewProcess(k, 1, hw.GiB)
	p.Mmap(32*hw.MiB, mem.VMAAnon)
	v, _ := p.Mmap(8*hw.MiB, mem.VMAAnon)
	if _, err := p.MovePages(v, []int{4}); err != nil {
		t.Fatal(err)
	}
	ph := k.Phys()
	if ph.Capacity(4) == ph.FreeBytes(4) {
		t.Fatal("no MCDRAM in use before exit")
	}
	p.Exit()
	for d := 0; d < 8; d++ {
		if ph.Capacity(d) != ph.FreeBytes(d) {
			t.Fatalf("domain %d leaked after exit", d)
		}
	}
}
