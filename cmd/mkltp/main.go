// Command mkltp runs the 3,328-case syscall conformance catalogue (the
// paper's LTP experiment, section III-D) against the three kernel models.
//
// Usage:
//
//	mkltp            # summary table
//	mkltp -failed    # also list failing case IDs per kernel
//	mkltp -case brk-shrink-fault -kernel mos
//
// Exit status: 0 on success, 1 on an unknown kernel or case, 2 on a bad
// flag or a positional argument.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"mklite/internal/cluster"
	"mklite/internal/experiments"
	"mklite/internal/kernel"
	"mklite/internal/ltp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mkltp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		showFailed = fs.Bool("failed", false, "list failing case ids")
		caseID     = fs.String("case", "", "evaluate a single case id")
		kernelStr  = fs.String("kernel", "mckernel", "kernel for -case")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mkltp: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2
	}
	var err error
	if *caseID != "" {
		err = evaluateCase(stdout, *caseID, *kernelStr)
	} else {
		err = summary(stdout, *showFailed)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mkltp:", err)
		return 1
	}
	return 0
}

// evaluateCase runs one catalogue case against one default-booted kernel.
func evaluateCase(w io.Writer, id, kernelName string) error {
	kts := []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS}
	ki := slices.IndexFunc(kts, func(kt kernel.Type) bool { return strings.ToLower(kt.String()) == kernelName })
	if ki < 0 {
		return fmt.Errorf("unknown kernel %q (want linux, mckernel or mos)", kernelName)
	}
	cases := ltp.Catalogue()
	ci := slices.IndexFunc(cases, func(c ltp.Case) bool { return c.ID == id })
	if ci < 0 {
		return fmt.Errorf("unknown LTP case %q", id)
	}
	k, err := cluster.BootDefault(kts[ki])
	if err != nil {
		return err
	}
	verdict := "PASS"
	if reason := ltp.Evaluate(k, cases[ci]); reason != "" {
		verdict = fmt.Sprintf("FAIL (%s)", reason)
	}
	fmt.Fprintf(w, "%s on %s: %s\n", id, kernelName, verdict)
	return nil
}

func summary(w io.Writer, showFailed bool) error {
	reports, tb, err := experiments.LTPResultsWorkers(0)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Syscall conformance, 3,328 cases (paper: Linux passes all, McKernel fails 32, mOS fails 111)")
	fmt.Fprint(w, tb.Render())
	if !showFailed {
		return nil
	}
	for _, rep := range reports {
		if rep.Failed == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s failure causes:\n", rep.Kernel)
		for _, cause := range slices.Sorted(maps.Keys(rep.ByCause)) {
			fmt.Fprintf(w, "  %-28s %d\n", cause, rep.ByCause[cause])
		}
	}
	fmt.Fprintln(w, "Use -case <id> -kernel <k> to probe individual cases.")
	return nil
}
