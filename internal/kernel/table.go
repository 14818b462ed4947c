package kernel

import "fmt"

// Disposition says how a kernel handles a system call.
type Disposition uint8

const (
	// Native: serviced in the local kernel.
	Native Disposition = iota
	// Offloaded: forwarded to the Linux side of the multi-kernel (proxy
	// IKC round trip for McKernel, thread migration for mOS). The call
	// works; it just costs a kernel crossing.
	Offloaded
	// Unsupported: the kernel refuses the call.
	Unsupported
)

// String names the disposition.
func (d Disposition) String() string {
	switch d {
	case Native:
		return "native"
	case Offloaded:
		return "offloaded"
	case Unsupported:
		return "unsupported"
	default:
		return fmt.Sprintf("Disposition(%d)", int(d))
	}
}

// Table maps every syscall to its disposition for one kernel.
type Table struct {
	def Disposition
	d   [numSysno]Disposition
}

// NewTable creates a table whose unlisted syscalls get the given default.
func NewTable(def Disposition) *Table {
	t := &Table{def: def}
	for i := range t.d {
		t.d[i] = def
	}
	return t
}

// Set records the disposition of one syscall. Numbers outside the
// inventory are ignored: Get answers them with the default.
func (t *Table) Set(n Sysno, d Disposition) *Table {
	if n.Valid() {
		t.d[n] = d
	}
	return t
}

// SetAll records the disposition for a list of syscalls.
func (t *Table) SetAll(ns []Sysno, d Disposition) *Table {
	for _, n := range ns {
		t.Set(n, d)
	}
	return t
}

// SetClass records the disposition for every syscall in a class.
func (t *Table) SetClass(c Class, d Disposition) *Table {
	for n := range t.d {
		if ClassOf(Sysno(n)) == c {
			t.d[n] = d
		}
	}
	return t
}

// Get returns the disposition of a syscall, the default for a number
// outside the inventory.
func (t *Table) Get(n Sysno) Disposition {
	if !n.Valid() {
		return t.def
	}
	return t.d[n]
}

// Count returns how many syscalls in the inventory have the given
// disposition.
func (t *Table) Count(d Disposition) int {
	c := 0
	for _, got := range t.d {
		if got == d {
			c++
		}
	}
	return c
}

// Capability is a feature flag the conformance suite and the harness query.
// Capabilities capture the semantic differences the paper reports that are
// finer-grained than per-syscall dispositions.
type Capability int

const (
	// CapFullFork: fork() fully implemented. "In mOS, fork() is not
	// fully implemented yet which results in many failures before the
	// tests of the targeted system calls even begin."
	CapFullFork Capability = iota
	// CapPtraceFull: all ptrace request variants work. mOS reuses the
	// Linux implementation but "four of the five ptrace experiments
	// fail" in its current state.
	CapPtraceFull
	// CapBrkShrinkReleases: shrinking the heap returns memory and
	// subsequent access faults. LWK HPC heaps retain memory, so the LTP
	// test expecting a fault fails.
	CapBrkShrinkReleases
	// CapMovePages: move_pages() implemented (work in progress in
	// McKernel: eleven LTP variants fail).
	CapMovePages
	// CapExoticCloneFlags: error semantics for unusual clone() flag
	// combinations "which actual applications never seem to use".
	CapExoticCloneFlags
	// CapLinuxMisc: the long tail of Linux-specific facilities
	// (perf_event_open, userfaultfd, seccomp, memfd_create,
	// migrate_pages, mlockall edge cases) that McKernel intentionally
	// does not support for HPC workloads.
	CapLinuxMisc
	// CapDemandPagingFallback: automatic fallback to demand paging for
	// best-effort NUMA allocation (McKernel; section II-D3).
	CapDemandPagingFallback
	// CapTimeSharing: optional time-sharing on designated cores
	// (McKernel).
	CapTimeSharing
	// CapToolsOnLinuxSide: debuggers/profilers can run on Linux cores
	// against LWK processes (mOS; McKernel needs them on LWK cores).
	CapToolsOnLinuxSide
	// CapEarlyBootMemory: the kernel can grab large contiguous physical
	// blocks before Linux places unmovable structures (mOS yes,
	// McKernel no).
	CapEarlyBootMemory
	// CapProcSysFull: complete /proc and /sys surface (Linux and —
	// mostly reusing Linux — mOS; McKernel reimplements a subset).
	CapProcSysFull
)

// CapSet is a set of capabilities.
type CapSet map[Capability]bool

// Has reports membership; missing entries are false.
func (s CapSet) Has(c Capability) bool { return s[c] }

// With returns a copy with the given capabilities added.
func (s CapSet) With(caps ...Capability) CapSet {
	out := make(CapSet, len(s)+len(caps))
	for k, v := range s {
		out[k] = v
	}
	for _, c := range caps {
		out[c] = true
	}
	return out
}

// Without returns a copy with the given capabilities removed.
func (s CapSet) Without(caps ...Capability) CapSet {
	out := make(CapSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	for _, c := range caps {
		delete(out, c)
	}
	return out
}
