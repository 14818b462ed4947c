package ltp

import (
	"maps"
	"slices"

	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/mem"
)

// This file gives a subset of the catalogue *executable* semantics: instead
// of consulting capability flags, these cases drive a real kernel.Process
// through the syscall layer and check observable behaviour — the way LTP
// itself works. The capability-based Evaluate and the executed outcome must
// agree (enforced by TestExecutedCasesAgreeWithEvaluate), which pins the
// declarative kernel models to their mechanical implementations.

// ExecOutcome is an executed case's result.
type ExecOutcome struct {
	Pass   bool
	Detail string
}

// ExecFunc runs a conformance experiment against a live process.
type ExecFunc func(p *kernel.Process) ExecOutcome

// ExecutableCaseIDs lists the cases with executable semantics, sorted. It is
// part of the E7 oracle behind TestExecutedCasesAgreeWithEvaluate, and no
// binary links it.
func ExecutableCaseIDs() []string {
	return slices.Sorted(maps.Keys(execCases))
}

// RunExecutable executes one case id against a fresh process on the given
// kernel. It is part of the E7 oracle behind
// TestExecutedCasesAgreeWithEvaluate, and no binary links it.
func RunExecutable(id string, k kernel.Kernel) (ExecOutcome, bool) {
	f, ok := execCases[id]
	if !ok {
		return ExecOutcome{}, false
	}
	p, err := kernel.NewProcess(k, 4242, hw.GiB)
	if err != nil {
		return ExecOutcome{Pass: false, Detail: "process setup: " + err.Error()}, true
	}
	defer p.Exit()
	return f(p), true
}

var execCases = map[string]ExecFunc{
	// The brk-shrink probe of section III-D: grow the heap, touch it,
	// shrink it, and expect the released range to fault (i.e. to be
	// re-populated) when touched again. LWK heaps retain the memory, so
	// "tests that expect a page fault fail".
	"brk-shrink-fault": func(p *kernel.Process) ExecOutcome {
		if _, err := p.Sbrk(8 * hw.MiB); err != nil {
			return ExecOutcome{Detail: "grow failed: " + err.Error()}
		}
		p.Heap.TouchUpTo(8 * hw.MiB)
		if _, err := p.Sbrk(-8 * hw.MiB); err != nil {
			return ExecOutcome{Detail: "shrink failed: " + err.Error()}
		}
		if _, err := p.Sbrk(8 * hw.MiB); err != nil {
			return ExecOutcome{Detail: "regrow failed: " + err.Error()}
		}
		w := p.Heap.TouchUpTo(8 * hw.MiB)
		if w.Faults == 0 {
			return ExecOutcome{Detail: "no fault after shrink+regrow: heap retained physical memory"}
		}
		return ExecOutcome{Pass: true, Detail: "released range re-faulted"}
	},

	// move_pages: map memory in DDR4, migrate it to MCDRAM, verify the
	// residency moved.
	"move_pages01": func(p *kernel.Process) ExecOutcome {
		v, err := p.Mmap(8*hw.MiB, mem.VMAAnon)
		if err != nil {
			return ExecOutcome{Detail: "mmap: " + err.Error()}
		}
		node := p.Kern.Partition().Node
		targets := node.DomainsOfKind(hw.DDR4)
		if _, err := p.MovePages(v, targets); err != nil {
			return ExecOutcome{Detail: "move_pages: " + err.Error()}
		}
		for d := range v.DomainsOf() {
			if dom, derr := node.Domain(d); derr == nil && dom.Mem.Kind != hw.DDR4 {
				return ExecOutcome{Detail: "pages not migrated to DDR4"}
			}
		}
		return ExecOutcome{Pass: true, Detail: "pages migrated"}
	},

	// mprotect: an interior protection change must split the area and
	// leave the protection visible.
	"mprotect01": func(p *kernel.Process) ExecOutcome {
		v, err := p.Mmap(4*hw.MiB, mem.VMAAnon)
		if err != nil {
			return ExecOutcome{Detail: "mmap: " + err.Error()}
		}
		mid, err := p.Mprotect(v, 1*hw.MiB, 1*hw.MiB, mem.ProtRead)
		if err != nil {
			return ExecOutcome{Detail: "mprotect: " + err.Error()}
		}
		if mid.Prot != mem.ProtRead {
			return ExecOutcome{Detail: "protection not applied"}
		}
		return ExecOutcome{Pass: true, Detail: "area split and protected"}
	},
}
