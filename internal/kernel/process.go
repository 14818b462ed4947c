package kernel

import (
	"fmt"

	"mklite/internal/mem"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// Process is a simulated application process: an address space, a heap,
// a file-descriptor table (local or proxy-held) and an accumulated
// system-call time. Its methods execute syscalls against the owning
// kernel's dispatch surface, charging the appropriate trap/offload and
// memory-work costs — this is the layer a workload trace drives when it
// wants per-call fidelity rather than the cluster harness's aggregates.
type Process struct {
	PID  int
	Kern Kernel
	AS   *mem.AddrSpace
	Heap mem.Heap

	// fds is nil when the descriptor table is proxy-held.
	fds *FDTable
	// Proxy is the Linux-side proxy process (McKernel model):
	// descriptor state lives there and every file operation pays the
	// offload round trip. "For every single process running on McKernel
	// there is a process spawned on Linux, called the proxy process."
	Proxy *ProxyProcess

	// SyscallTime accumulates the kernel-side time of every call made
	// through this process.
	SyscallTime sim.Duration
	// Calls counts syscall invocations by number.
	Calls map[Sysno]int

	// sink observes dispatch: per-syscall counts plus offload round-trip
	// attribution. Nil when tracing is off.
	sink *trace.Sink
}

// ProxyProcess is the Linux-side agent of an LWK process.
type ProxyProcess struct {
	PID int
	FDs *FDTable
}

// NewProcess builds a process on the given kernel. Kernels whose file
// class is offloaded get a proxy-held descriptor table.
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
	p := &Process{PID: pid, Kern: k, AS: as, Heap: h, Calls: map[Sysno]int{}, sink: sink}
	if k.Table().Get(SysOpen) == Offloaded {
		p.Proxy = &ProxyProcess{PID: pid + 100000, FDs: NewFDTable()}
	} else {
		p.fds = NewFDTable()
	}
	return p, nil
}

// table returns the descriptor table wherever it lives.
func (p *Process) table() *FDTable {
	if p.Proxy != nil {
		return p.Proxy.FDs
	}
	return p.fds
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
// counting sink attached it also records the dispatch — per-syscall counts
// and, for offloaded calls, the IKC/migration round trip the dispatch paid —
// so the trace's view can never drift from SyscallTime.
func (p *Process) charge(n Sysno, extra sim.Duration) {
	p.SyscallTime += p.Kern.SyscallTime(n) + extra
	p.Calls[n]++
	if p.sink.Counting() {
		p.sink.Count(sysCounterName[n], 1)
		switch p.Kern.Table().Get(n) {
		case Offloaded:
			p.sink.CountKey(trace.KeyOffloadCalls, 1)
			p.sink.CountKey(trace.KeyOffloadRTTNs, int64(p.Kern.Costs().OffloadRTT))
		case Unsupported:
			p.sink.CountKey(trace.KeySyscallEnosys, 1)
		}
	}
	if p.sink.Observing() {
		p.sink.Observe("syscall.cost_ns", int64(p.Kern.SyscallTime(n)+extra))
	}
}

// errUnsupported builds the ENOSYS-style error for a refused call.
func (p *Process) errUnsupported(n Sysno) error {
	return fmt.Errorf("kernel: ENOSYS: %v unsupported on %s", n, p.Kern.Name())
}

// dispatchable charges the trap and reports whether the call proceeds.
func (p *Process) dispatchable(n Sysno) error {
	if p.Kern.Table().Get(n) == Unsupported {
		p.charge(n, 0)
		return p.errUnsupported(n)
	}
	return nil
}

// Open opens a path. In the proxy model the descriptor is allocated on the
// Linux side and merely returned to the LWK.
func (p *Process) Open(path string, flags int) (int, error) {
	if err := p.dispatchable(SysOpen); err != nil {
		return -1, err
	}
	p.charge(SysOpen, 0)
	return p.table().Open(path, flags), nil
}

// Close closes a descriptor.
func (p *Process) Close(fd int) error {
	if err := p.dispatchable(SysClose); err != nil {
		return err
	}
	p.charge(SysClose, 0)
	return p.table().Close(fd)
}

// Dup duplicates a descriptor.
func (p *Process) Dup(fd int) (int, error) {
	if err := p.dispatchable(SysDup); err != nil {
		return -1, err
	}
	p.charge(SysDup, 0)
	return p.table().Dup(fd)
}

// Read advances the file position by n bytes and charges the call.
func (p *Process) Read(fd int, n int64) (int64, error) {
	if err := p.dispatchable(SysRead); err != nil {
		return 0, err
	}
	p.charge(SysRead, 0)
	f, err := p.table().Get(fd)
	if err != nil {
		return 0, err
	}
	f.Pos += n
	return n, nil
}

// Write advances the file position by n bytes and charges the call.
func (p *Process) Write(fd int, n int64) (int64, error) {
	if err := p.dispatchable(SysWrite); err != nil {
		return 0, err
	}
	p.charge(SysWrite, 0)
	f, err := p.table().Get(fd)
	if err != nil {
		return 0, err
	}
	f.Pos += n
	return n, nil
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

// Munmap unmaps a range of an area. No experiment issues it, and no binary
// links it (an exception of the linked-code gate).
func (p *Process) Munmap(v *mem.VMA, offset, length int64) error {
	if err := p.dispatchable(SysMunmap); err != nil {
		return err
	}
	p.charge(SysMunmap, 0)
	return p.AS.UnmapRange(v, offset, length)
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

// SetMempolicy re-targets the default placement for future mappings; the
// model applies it by migrating an existing area when one is given
// (matching how the applications use it at startup). No experiment issues
// it, and no binary links it (an exception of the linked-code gate).
func (p *Process) SetMempolicy(v *mem.VMA, domains []int) (mem.Work, error) {
	if err := p.dispatchable(SysSetMempolicy); err != nil {
		return mem.Work{}, err
	}
	if v == nil {
		p.charge(SysSetMempolicy, 0)
		return mem.Work{}, nil
	}
	w, err := p.AS.Migrate(v, domains)
	p.charge(SysSetMempolicy, p.Kern.Costs().WorkTime(w))
	return w, err
}

// SchedYield yields the CPU (possibly hijacked into a no-op by McKernel's
// --disable-sched-yield, in which case it costs nothing).
func (p *Process) SchedYield() {
	p.charge(SysSchedYield, 0)
}

// Getpid returns the process id.
func (p *Process) Getpid() int {
	p.charge(SysGetpid, 0)
	return p.PID
}

// OpenFiles returns the number of open descriptors, wherever the table
// lives.
func (p *Process) OpenFiles() int { return p.table().Count() }

// Exit releases the process's memory.
func (p *Process) Exit() {
	p.charge(SysExitGroup, 0)
	p.AS.ReleaseAll()
}

// Mremap resizes an existing mapping (grow in place or shrink), charging
// the population/release work. No experiment issues it, and no binary
// links it (an exception of the linked-code gate).
func (p *Process) Mremap(v *mem.VMA, newSize int64) error {
	if err := p.dispatchable(SysMremap); err != nil {
		return err
	}
	w, err := p.AS.Remap(v, newSize)
	p.charge(SysMremap, p.Kern.Costs().WorkTime(w))
	return err
}
