package ltp

import (
	"fmt"
	"strings"
	"testing"

	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/linuxos"
	"mklite/internal/mckernel"
	"mklite/internal/mos"
)

func kernels(t *testing.T) (kernel.Kernel, kernel.Kernel, kernel.Kernel) {
	t.Helper()
	lin, err := linuxos.Boot(hw.KNL7250SNC4(), linuxos.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mck, _, err := mckernel.Deploy(hw.KNL7250SNC4(), mckernel.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mosk, err := mos.Boot(hw.KNL7250SNC4(), mos.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return lin, mck, mosk
}

func TestCatalogueSize(t *testing.T) {
	if got := len(Catalogue()); got != TotalCases {
		t.Fatalf("catalogue has %d cases, want %d", got, TotalCases)
	}
}

func TestCatalogueDeterministic(t *testing.T) {
	a, b := Catalogue(), Catalogue()
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("catalogue not deterministic at %d", i)
		}
	}
}

// TestCaseIDsMatchSprintf: every variant's ID is the syscall's name and
// its 1-based number in at least two digits, as fmt's "%s%02d" spells it,
// in the catalogue and past 99 variants.
func TestCaseIDsMatchSprintf(t *testing.T) {
	for _, c := range Catalogue() {
		if c.Variant == 99 {
			continue // the two semantic probes carry names of their own
		}
		if want := fmt.Sprintf("%s%02d", c.Sysno, c.Variant+1); c.ID != want {
			t.Fatalf("case %q, want %q", c.ID, want)
		}
	}
	for _, v := range []int{0, 8, 9, 10, 98, 99, 100, 1234} {
		if got, want := caseID("brk", v), fmt.Sprintf("%s%02d", "brk", v+1); got != want {
			t.Errorf("caseID(brk, %d) = %q, want %q", v, got, want)
		}
	}
}

func TestCatalogueUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Catalogue() {
		if seen[c.ID] {
			t.Fatalf("duplicate case id %q", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestCatalogueCoversInventory(t *testing.T) {
	bySys := map[kernel.Sysno]int{}
	for _, c := range Catalogue() {
		bySys[c.Sysno]++
	}
	for _, s := range kernel.All() {
		if bySys[s] == 0 {
			t.Fatalf("syscall %v has no test cases", s)
		}
	}
	if bySys[kernel.SysMovePages] != 11 {
		t.Fatalf("move_pages has %d cases, want 11", bySys[kernel.SysMovePages])
	}
	if bySys[kernel.SysPtrace] != 5 {
		t.Fatalf("ptrace has %d cases, want 5", bySys[kernel.SysPtrace])
	}
}

func TestLinuxPassesEverything(t *testing.T) {
	lin, _, _ := kernels(t)
	rep := Run(lin)
	if rep.Failed != 0 {
		t.Fatalf("Linux failed %d cases: %v", rep.Failed, rep.FailedCases[:min(10, len(rep.FailedCases))])
	}
	if rep.Total != TotalCases || rep.Passed != TotalCases {
		t.Fatalf("totals: %+v", rep)
	}
}

func TestMcKernelFailsExactly32(t *testing.T) {
	// "McKernel passes all but 32 of them."
	_, mck, _ := kernels(t)
	rep := Run(mck)
	if rep.Failed != 32 {
		t.Fatalf("McKernel failed %d, want 32 (%v)", rep.Failed, rep.ByCause)
	}
	// "Eleven of the 32 failing experiments attempt to test various
	// combinations of the move_pages() system call."
	movePages := 0
	for _, id := range rep.FailedCases {
		if strings.HasPrefix(id, "move_pages") {
			movePages++
		}
	}
	if movePages != 11 {
		t.Fatalf("%d move_pages failures, want 11", movePages)
	}
	if rep.ByCause[ReasonBrkShrink] != 1 || rep.ByCause[ReasonCloneFlags] != 1 {
		t.Fatalf("semantic probes: %v", rep.ByCause)
	}
	if rep.ByCause[ReasonForkSetup] != 0 {
		t.Fatal("McKernel supports fork; no cascades expected")
	}
}

func TestMOSFailsExactly111(t *testing.T) {
	// "For mOS the numbers are more bleak: 111 tests out of 3,328 fail."
	_, _, mosk := kernels(t)
	rep := Run(mosk)
	if rep.Failed != 111 {
		t.Fatalf("mOS failed %d, want 111 (%v)", rep.Failed, rep.ByCause)
	}
	// "Many of the LTP tests rely on fork() to set up the experiment."
	if rep.ByCause[ReasonForkSetup] != 105 {
		t.Fatalf("fork cascades = %d, want 105", rep.ByCause[ReasonForkSetup])
	}
	// "four of the five ptrace experiments fail."
	if rep.ByCause[ReasonPtrace] != 4 {
		t.Fatalf("ptrace failures = %d, want 4", rep.ByCause[ReasonPtrace])
	}
	if rep.ByCause[ReasonBrkShrink] != 1 || rep.ByCause[ReasonCloneFlags] != 1 {
		t.Fatalf("semantic probes: %v", rep.ByCause)
	}
	// mOS reaches everything else through Linux: nothing unsupported.
	if rep.ByCause[ReasonUnsupported] != 0 {
		t.Fatalf("mOS unsupported failures: %d", rep.ByCause[ReasonUnsupported])
	}
}

func TestEvaluateSingleCases(t *testing.T) {
	lin, mck, mosk := kernels(t)
	brkShrink := Case{ID: "x", Sysno: kernel.SysBrk, Requires: []Requirement{ReqBrkShrinkReleases}}
	if Evaluate(lin, brkShrink) != "" {
		t.Fatal("Linux should pass brk shrink")
	}
	if Evaluate(mck, brkShrink) != ReasonBrkShrink {
		t.Fatal("McKernel should fail brk shrink")
	}
	if Evaluate(mosk, brkShrink) != ReasonBrkShrink {
		t.Fatal("mOS should fail brk shrink")
	}
	moveCase := Case{ID: "y", Sysno: kernel.SysMovePages}
	if Evaluate(mck, moveCase) != ReasonUnsupported {
		t.Fatal("McKernel move_pages")
	}
	if Evaluate(mosk, moveCase) != "" {
		t.Fatal("mOS move_pages should pass via Linux")
	}
}

func TestReportFieldsConsistent(t *testing.T) {
	_, mck, _ := kernels(t)
	rep := Run(mck)
	if rep.Passed+rep.Failed != rep.Total {
		t.Fatal("report arithmetic")
	}
	if len(rep.FailedCases) != rep.Failed {
		t.Fatal("failed case list length")
	}
	sum := 0
	for _, n := range rep.ByCause {
		sum += n
	}
	if sum != rep.Failed {
		t.Fatal("cause counts do not sum to failures")
	}
	if rep.Kernel != "mckernel" {
		t.Fatalf("kernel name %q", rep.Kernel)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestExecutableCasesExistInCatalogue(t *testing.T) {
	ids := map[string]bool{}
	for _, c := range Catalogue() {
		ids[c.ID] = true
	}
	for _, id := range ExecutableCaseIDs() {
		if !ids[id] {
			t.Fatalf("executable case %q not in the catalogue", id)
		}
	}
}

func TestExecutedCasesAgreeWithEvaluate(t *testing.T) {
	// The declarative capability check and the mechanically executed
	// outcome must agree for every executable case on every kernel —
	// this pins the capability flags to the real implementations.
	lin, mck, mosk := kernels(t)
	byID := map[string]Case{}
	for _, c := range Catalogue() {
		byID[c.ID] = c
	}
	for _, k := range []kernel.Kernel{lin, mck, mosk} {
		for _, id := range ExecutableCaseIDs() {
			c, ok := byID[id]
			if !ok {
				t.Fatalf("case %q missing", id)
			}
			declPass := Evaluate(k, c) == ""
			out, ok := RunExecutable(id, k)
			if !ok {
				t.Fatalf("case %q not executable", id)
			}
			if out.Pass != declPass {
				t.Fatalf("%s on %s: executed=%v (%s) but capability says %v",
					id, k.Name(), out.Pass, out.Detail, declPass)
			}
		}
	}
}

func TestRunExecutableUnknownCase(t *testing.T) {
	lin, _, _ := kernels(t)
	if _, ok := RunExecutable("not-a-case", lin); ok {
		t.Fatal("unknown case executed")
	}
}

func TestBrkShrinkExecution(t *testing.T) {
	lin, mck, _ := kernels(t)
	out, _ := RunExecutable("brk-shrink-fault", lin)
	if !out.Pass {
		t.Fatalf("Linux: %s", out.Detail)
	}
	out, _ = RunExecutable("brk-shrink-fault", mck)
	if out.Pass {
		t.Fatal("McKernel HPC heap should retain memory")
	}
}
