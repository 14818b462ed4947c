// Package ltp models the Linux Test Project conformance run of section
// III-D: a catalogue of 3,328 system-call test cases executed against each
// kernel's dispatch surface. The paper's result — "Concentrating only on
// system calls, McKernel passes all but 32 of them. For mOS the numbers are
// more bleak: 111 tests out of 3,328 fail" — emerges from the kernels'
// dispositions and capabilities:
//
//   - eleven McKernel failures test move_pages() combinations (work in
//     progress), one an unusual clone() flag combination, one the
//     brk-shrink page-fault behaviour the HPC heap deliberately breaks,
//     and nineteen exercise Linux facilities McKernel intentionally omits;
//   - most mOS failures cascade from the incomplete fork() ("many failures
//     before the tests of the targeted system calls even begin"), plus
//     four of the five ptrace variants, the brk-shrink test and the clone
//     flag test.
package ltp

import (
	"maps"
	"slices"
	"sort"
	"strconv"

	"mklite/internal/kernel"
)

// TotalCases is the catalogue size the paper reports.
const TotalCases = 3328

// Requirement is a semantic precondition of a test case beyond the target
// syscall being dispatchable.
type Requirement int

const (
	// ReqForkSetup: the case forks a child to set up the experiment.
	ReqForkSetup Requirement = iota
	// ReqPtraceVariant: the case exercises a non-trivial ptrace request.
	ReqPtraceVariant
	// ReqBrkShrinkReleases: the case expects a fault after shrinking
	// the heap.
	ReqBrkShrinkReleases
	// ReqExoticCloneFlags: the case checks error behaviour of "an
	// unusual clone() flag combination, which actual applications never
	// seem to use".
	ReqExoticCloneFlags
)

// Case is one conformance test.
type Case struct {
	ID       string
	Sysno    kernel.Sysno
	Variant  int
	Requires []Requirement
}

// forkSetupPlan spreads the fork-dependent setup across the process/file
// syscalls whose LTP tests genuinely fork; the counts sum to 105.
var forkSetupPlan = []struct {
	sysno kernel.Sysno
	tests int
}{
	{kernel.SysFork, 12},
	{kernel.SysVfork, 6},
	{kernel.SysWait4, 9},
	{kernel.SysWaitid, 6},
	{kernel.SysKill, 10},
	{kernel.SysTgkill, 4},
	{kernel.SysExecve, 10},
	{kernel.SysPipe, 8},
	{kernel.SysPipe2, 4},
	{kernel.SysDup, 5},
	{kernel.SysDup2, 5},
	{kernel.SysSetpgid, 4},
	{kernel.SysGetpgid, 2},
	{kernel.SysSetsid, 3},
	{kernel.SysRtSigaction, 6},
	{kernel.SysRtSigprocmask, 4},
	{kernel.SysPause, 2},
	{kernel.SysShmat, 3},
	{kernel.SysShmdt, 2},
}

// specialCounts fixes the per-syscall case counts the paper's numbers pin
// down exactly.
var specialCounts = map[kernel.Sysno]int{
	kernel.SysMovePages:     11, // "Eleven of the 32 failing experiments"
	kernel.SysPtrace:        5,  // "four of the five ptrace experiments fail"
	kernel.SysPerfEventOpen: 4,
	kernel.SysUserfaultfd:   3,
	kernel.SysSeccomp:       4,
	kernel.SysMemfdCreate:   3,
	kernel.SysMigratePages:  3,
	kernel.SysPersonality:   2,
}

// Catalogue builds the deterministic 3,328-case suite.
func Catalogue() []Case {
	forkPlan := map[kernel.Sysno]int{}
	for _, e := range forkSetupPlan {
		forkPlan[e.sysno] += e.tests
	}

	// Per-syscall counts: specials are pinned; fork-heavy syscalls get
	// at least their fork quota plus a margin; everything else shares
	// the remainder evenly.
	// Iterate sorted keys so the schedule derivation never depends on
	// map order, keeping the emitted catalogue stable across runs.
	counts := map[kernel.Sysno]int{}
	assigned := 0
	for _, s := range slices.Sorted(maps.Keys(specialCounts)) {
		counts[s] = specialCounts[s]
		assigned += specialCounts[s]
	}
	for _, s := range slices.Sorted(maps.Keys(forkPlan)) {
		counts[s] = forkPlan[s] + 2 // the quota plus two fork-free variants
		assigned += counts[s]
	}
	var rest []kernel.Sysno
	for _, s := range kernel.All() {
		if _, done := counts[s]; !done {
			rest = append(rest, s)
		}
	}
	remaining := TotalCases - assigned
	per := remaining / len(rest)
	extra := remaining - per*len(rest)
	for i, s := range rest {
		counts[s] = per
		if i < extra {
			counts[s]++
		}
	}

	// The counts sum to TotalCases; the two probes below come on top.
	cases := make([]Case, 0, TotalCases+2)
	for _, s := range kernel.All() {
		n := counts[s]
		forks := forkPlan[s]
		name := s.String()
		for v := 0; v < n; v++ {
			c := Case{
				ID:      caseID(name, v),
				Sysno:   s,
				Variant: v,
			}
			// The first `forks` variants of fork-heavy syscalls
			// fork during setup.
			if v < forks {
				c.Requires = append(c.Requires, ReqForkSetup)
			}
			// ptrace variants beyond the first exercise the
			// richer request surface.
			if s == kernel.SysPtrace && v > 0 {
				c.Requires = append(c.Requires, ReqPtraceVariant)
			}
			cases = append(cases, c)
		}
	}
	// The two single-variant semantic probes.
	cases = append(cases,
		Case{ID: "brk-shrink-fault", Sysno: kernel.SysBrk, Variant: 99,
			Requires: []Requirement{ReqBrkShrinkReleases}},
		Case{ID: "clone-exotic-flags", Sysno: kernel.SysClone, Variant: 99,
			Requires: []Requirement{ReqExoticCloneFlags}},
	)
	// Keep the total pinned: the two probes displace two filler cases.
	return trimTo(cases, TotalCases)
}

// caseID is the ID of variant v of the syscall named name: the name and
// the variant's 1-based number in at least two digits, as "brk01".
func caseID(name string, v int) string {
	num := strconv.Itoa(v + 1)
	if v+1 < 10 {
		num = "0" + num
	}
	return name + num
}

// trimTo removes filler cases (highest-variant, requirement-free, from the
// evenly filled syscalls) until the catalogue has exactly n entries.
func trimTo(cases []Case, n int) []Case {
	for len(cases) > n {
		idx := -1
		for i := len(cases) - 1; i >= 0; i-- {
			c := cases[i]
			if len(c.Requires) == 0 && specialCounts[c.Sysno] == 0 && c.Variant > 0 {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		cases = append(cases[:idx], cases[idx+1:]...)
	}
	return cases
}

// FailureReason classifies why a case failed.
type FailureReason string

const (
	ReasonUnsupported FailureReason = "syscall-unsupported"
	ReasonForkSetup   FailureReason = "fork-setup-incomplete"
	ReasonPtrace      FailureReason = "ptrace-variant"
	ReasonBrkShrink   FailureReason = "brk-shrink-retains-memory"
	ReasonCloneFlags  FailureReason = "exotic-clone-flags"
)

// Report is a suite run's outcome against one kernel.
type Report struct {
	Kernel  string
	Total   int
	Passed  int
	Failed  int
	ByCause map[FailureReason]int
	// FailedCases lists the failing case IDs, sorted.
	FailedCases []string
}

// Evaluate runs one case against a kernel, returning the failure reason or
// "" on pass.
func Evaluate(k kernel.Kernel, c Case) FailureReason {
	if k.Table().Get(c.Sysno) == kernel.Unsupported {
		return ReasonUnsupported
	}
	for _, r := range c.Requires {
		switch r {
		case ReqForkSetup:
			if !k.Caps().Has(kernel.CapFullFork) {
				return ReasonForkSetup
			}
		case ReqPtraceVariant:
			if !k.Caps().Has(kernel.CapPtraceFull) {
				return ReasonPtrace
			}
		case ReqBrkShrinkReleases:
			if !k.Caps().Has(kernel.CapBrkShrinkReleases) {
				return ReasonBrkShrink
			}
		case ReqExoticCloneFlags:
			if !k.Caps().Has(kernel.CapExoticCloneFlags) {
				return ReasonCloneFlags
			}
		}
	}
	return ""
}

// Run executes the whole catalogue against a kernel.
func Run(k kernel.Kernel) Report {
	rep := Report{
		Kernel:  k.Name(),
		ByCause: map[FailureReason]int{},
	}
	for _, c := range Catalogue() {
		rep.Total++
		if reason := Evaluate(k, c); reason != "" {
			rep.Failed++
			rep.ByCause[reason]++
			rep.FailedCases = append(rep.FailedCases, c.ID)
		} else {
			rep.Passed++
		}
	}
	sort.Strings(rep.FailedCases)
	return rep
}
