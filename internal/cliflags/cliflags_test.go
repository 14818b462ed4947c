package cliflags

import (
	"flag"
	"testing"

	"mklite/internal/fault"
	"mklite/internal/sched"
)

// TestRegistration parses a representative command line through every shared
// flag and checks the values land.
func TestRegistration(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	seed := Seed(fs)
	workers := Workers(fs)
	counters := Counters(fs)
	metricsF := Metrics(fs)
	faults := Faults(fs)
	slo := SLO(fs)
	schedF := Sched(fs)
	err := fs.Parse([]string{
		"-seed", "7", "-workers", "2", "-counters", "-metrics",
		"-faults", "straggler:node=3,factor=2", "-slo", "utilization_pct>=50",
		"-sched", "gang",
	})
	if err != nil {
		t.Fatal(err)
	}
	if *seed != 7 || *workers != 2 || !*counters || !*metricsF {
		t.Fatalf("scalar flags: seed=%d workers=%d counters=%v metrics=%v",
			*seed, *workers, *counters, *metricsF)
	}
	if *slo != "utilization_pct>=50" {
		t.Fatalf("slo = %q", *slo)
	}
	plan, err := fault.ParsePlan(*faults)
	if err != nil || plan == nil {
		t.Fatalf("ParsePlan: %v %v", plan, err)
	}
	kind, err := ParseSched(*schedF)
	if err != nil || kind != sched.Gang {
		t.Fatalf("ParseSched: %q %v", kind, err)
	}
}

// TestParseSchedEmpty: the empty default must mean "kernel default", not an
// error.
func TestParseSchedEmpty(t *testing.T) {
	kind, err := ParseSched("")
	if err != nil || kind != "" {
		t.Fatalf("ParseSched(\"\") = %q, %v", kind, err)
	}
	if _, err := ParseSched("nope"); err == nil {
		t.Fatal("ParseSched(nope) should fail")
	}
}

// TestParseFaultsEmpty: the -faults default, an empty spec, is a nil plan.
func TestParseFaultsEmpty(t *testing.T) {
	plan, err := fault.ParsePlan("")
	if err != nil || plan != nil {
		t.Fatalf("ParsePlan(\"\") = %v, %v", plan, err)
	}
}
