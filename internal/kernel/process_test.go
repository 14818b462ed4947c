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

func newTestKernel(t *testing.T, offloadFiles bool) *testKernel {
	t.Helper()
	node := hw.KNL7250SNC4()
	part, err := DefaultPartition(node, 4)
	if err != nil {
		t.Fatal(err)
	}
	def := Native
	if offloadFiles {
		def = Offloaded
	}
	tb := NewTable(def)
	tb.SetClass(ClassMemory, Native)
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

func TestFDTableBasics(t *testing.T) {
	ft := NewFDTable()
	if ft.Count() != 3 {
		t.Fatalf("fresh table has %d fds, want stdio 3", ft.Count())
	}
	fd := ft.Open("/tmp/x", 0)
	if fd != 3 {
		t.Fatalf("first open fd = %d", fd)
	}
	if err := ft.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := ft.Close(fd); err == nil {
		t.Fatal("double close accepted")
	}
	// Lowest-free reuse.
	if got := ft.Open("/tmp/y", 0); got != 3 {
		t.Fatalf("reused fd = %d", got)
	}
}

func TestFDTableDupSharesPosition(t *testing.T) {
	ft := NewFDTable()
	fd := ft.Open("/tmp/x", 0)
	dup, err := ft.Dup(fd)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := ft.Get(fd)
	f.Pos = 42
	g, _ := ft.Get(dup)
	if g.Pos != 42 {
		t.Fatal("dup does not share the file description")
	}
	if _, err := ft.Dup(99); err == nil {
		t.Fatal("dup of bad fd accepted")
	}
}

func TestFDTableDup2(t *testing.T) {
	ft := NewFDTable()
	fd := ft.Open("/tmp/x", 0)
	if got, err := ft.Dup2(fd, 7); err != nil || got != 7 {
		t.Fatalf("dup2: %v %v", got, err)
	}
	if got, _ := ft.Dup2(fd, fd); got != fd {
		t.Fatal("self dup2")
	}
	if _, err := ft.Dup2(55, 7); err == nil {
		t.Fatal("dup2 of bad fd accepted")
	}
}

func TestProcessProxyFDPlacement(t *testing.T) {
	// File-offloading kernels hold the fd table in the proxy.
	k := newTestKernel(t, true)
	p, err := NewProcess(k, 1, hw.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if p.Proxy == nil {
		t.Fatal("offloading kernel without proxy")
	}
	fd, err := p.Open("/data", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Proxy.FDs.Get(fd); err != nil {
		t.Fatal("descriptor not held by the proxy")
	}

	// Native kernels keep the table local.
	kn := newTestKernel(t, false)
	pn, err := NewProcess(kn, 2, hw.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if pn.Proxy != nil {
		t.Fatal("native kernel with a proxy")
	}
}

func TestProcessFileOpsChargeOffload(t *testing.T) {
	k := newTestKernel(t, true)
	p, _ := NewProcess(k, 1, hw.GiB)
	fd, _ := p.Open("/data", 0)
	p.Read(fd, 4096)
	p.Write(fd, 4096)
	p.Close(fd)
	wantPer := k.Costs().Trap + k.Costs().OffloadRTT
	if p.SyscallTime != 4*wantPer {
		t.Fatalf("4 offloaded calls cost %v, want %v", p.SyscallTime, 4*wantPer)
	}
	if p.Calls[SysOpen] != 1 || p.Calls[SysRead] != 1 {
		t.Fatalf("call counts %v", p.Calls)
	}
}

func TestProcessReadWriteAdvancePosition(t *testing.T) {
	k := newTestKernel(t, true)
	p, _ := NewProcess(k, 1, hw.GiB)
	fd, _ := p.Open("/data", 0)
	p.Read(fd, 100)
	p.Write(fd, 50)
	f, _ := p.Proxy.FDs.Get(fd)
	if f.Pos != 150 {
		t.Fatalf("pos %d", f.Pos)
	}
	if _, err := p.Read(99, 10); err == nil {
		t.Fatal("read of bad fd accepted")
	}
}

func TestProcessMmapChargesWork(t *testing.T) {
	k := newTestKernel(t, false)
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

func TestProcessMunmapAndMprotect(t *testing.T) {
	k := newTestKernel(t, false)
	p, _ := NewProcess(k, 1, hw.GiB)
	v, _ := p.Mmap(8*hw.MiB, mem.VMAAnon)
	if _, err := p.Mprotect(v, 2*hw.MiB, 2*hw.MiB, mem.ProtRead); err != nil {
		t.Fatal(err)
	}
	if len(p.AS.VMAs()) < 3 {
		t.Fatal("mprotect did not split")
	}
	if err := p.Munmap(v, 0, 2*hw.MiB); err != nil {
		t.Fatal(err)
	}
}

func TestProcessSbrk(t *testing.T) {
	k := newTestKernel(t, false)
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
	k := newTestKernel(t, false) // table marks move_pages unsupported
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
	k := newTestKernel(t, false)
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
	k := newTestKernel(t, false)
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

func TestProcessMremap(t *testing.T) {
	k := newTestKernel(t, false)
	p, _ := NewProcess(k, 1, hw.GiB)
	v, _ := p.Mmap(4*hw.MiB, mem.VMAAnon)
	if err := p.Mremap(v, 8*hw.MiB); err != nil {
		t.Fatal(err)
	}
	if v.Size != 8*hw.MiB {
		t.Fatalf("size %d", v.Size)
	}
	if p.Calls[SysMremap] != 1 {
		t.Fatal("mremap not counted")
	}
}
