package kernel

import (
	"fmt"

	"mklite/internal/mem"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// Process is a simulated application process: an address space, a heap
// and an accumulated system-call time. Its methods execute syscalls
// against the owning kernel's dispatch surface, charging the appropriate
// trap/offload and memory-work costs. The E7 executable LTP cases and the
// section IV brk replay drive it; the cluster harness charges aggregates.
type Process struct {
	Kern Kernel
	AS   *mem.AddrSpace
	Heap mem.Heap

	// SyscallTime accumulates the kernel-side time of every call made
	// through this process.
	SyscallTime sim.Duration
	// Calls counts syscall invocations by number.
	Calls map[Sysno]int

	// sink observes dispatch: per-syscall counts and costs. Nil when
	// tracing is off.
	sink *trace.Sink
}

// NewProcess builds a process on the given kernel.
func NewProcess(k Kernel, pid int, heapLimit int64) (*Process, error) {
	return NewProcessWith(k, pid, heapLimit, nil)
}

// NewProcessWith is NewProcess with a trace sink attached before the heap is
// created, so heap-engine and address-space counters cover the process's
// whole lifetime. A nil sink gives exactly NewProcess's behaviour.
func NewProcessWith(k Kernel, pid int, heapLimit int64, sink *trace.Sink) (*Process, error) {
	as := mem.NewAddrSpace(k.Phys())
	as.SetSink(sink)
	h, err := k.NewHeap(as, heapLimit, nil)
	if err != nil {
		return nil, fmt.Errorf("kernel: process %d heap: %w", pid, err)
	}
	return &Process{Kern: k, AS: as, Heap: h, Calls: map[Sysno]int{}, sink: sink}, nil
}

// sysCounterName interns the "syscall.<name>" counter names once per
// process image, so dispatch accounting never concatenates strings. The
// table is built at init and read-only afterwards, which keeps it safe to
// share across par worker closures (unlike any mutable trace state).
var sysCounterName = func() [numSysno]string {
	var names [numSysno]string
	for n := Sysno(0); n < numSysno; n++ {
		names[n] = "syscall." + n.String()
	}
	return names
}()

// charge accounts one syscall invocation plus extra kernel work. With a
// sink attached it also records the call's count and cost, so the trace's
// view can never drift from SyscallTime.
func (p *Process) charge(n Sysno, extra sim.Duration) {
	p.SyscallTime += p.Kern.SyscallTime(n) + extra
	p.Calls[n]++
	if p.sink.Counting() {
		p.sink.Count(sysCounterName[n], 1)
	}
	if p.sink.Observing() {
		p.sink.Observe("syscall.cost_ns", int64(p.Kern.SyscallTime(n)+extra))
	}
}

// dispatchable charges the trap of a refused call and returns its
// ENOSYS-style error, or nil when the call proceeds.
func (p *Process) dispatchable(n Sysno) error {
	if p.Kern.Table().Get(n) == Unsupported {
		p.charge(n, 0)
		return fmt.Errorf("kernel: ENOSYS: %v unsupported on %s", n, p.Kern.Name())
	}
	return nil
}

// Mmap maps anonymous memory with the kernel's default policy, charging
// the trap plus page-table population work.
func (p *Process) Mmap(size int64, kind mem.VMAKind) (*mem.VMA, error) {
	if err := p.dispatchable(SysMmap); err != nil {
		return nil, err
	}
	v, err := p.AS.Map(size, kind, p.Kern.MapPolicy(kind))
	if err != nil {
		p.charge(SysMmap, 0)
		return nil, err
	}
	w := mem.Work{PagesMapped: int64(len(v.Backings)), ZeroedBytes: v.Populated}
	p.charge(SysMmap, p.Kern.Costs().WorkTime(w))
	return v, nil
}

// Mprotect changes a range's protection (splitting the VMA as needed).
func (p *Process) Mprotect(v *mem.VMA, offset, length int64, prot mem.Prot) (*mem.VMA, error) {
	if err := p.dispatchable(SysMprotect); err != nil {
		return nil, err
	}
	p.charge(SysMprotect, 0)
	return p.AS.Protect(v, offset, length, prot)
}

// Sbrk adjusts the heap, charging the kernel work the heap engine did.
func (p *Process) Sbrk(delta int64) (int64, error) {
	if err := p.dispatchable(SysBrk); err != nil {
		return 0, err
	}
	size, w, err := p.Heap.Sbrk(delta)
	p.charge(SysBrk, p.Kern.Costs().WorkTime(w))
	return size, err
}

// MovePages migrates an area's pages to the given NUMA domains
// (move_pages / mbind semantics). Kernels without the capability refuse.
func (p *Process) MovePages(v *mem.VMA, domains []int) (mem.Work, error) {
	if err := p.dispatchable(SysMovePages); err != nil {
		return mem.Work{}, err
	}
	w, err := p.AS.Migrate(v, domains)
	p.charge(SysMovePages, p.Kern.Costs().WorkTime(w))
	return w, err
}

// Exit releases the process's memory.
func (p *Process) Exit() {
	p.charge(SysExitGroup, 0)
	p.AS.ReleaseAll()
}
