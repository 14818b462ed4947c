// Package cliflags declares the command-line flags shared by the mklite
// commands that run simulations (mkrun, mkexperiments, mknoise, mkfleet).
// Each shared flag is defined exactly once here — name, default and help
// text — so the commands cannot drift apart and a new cross-cutting flag
// (such as -sched) is added in one place. Flags unique to a single command
// stay in that command: mkrun's artifact writers (-trace-json,
// -counters-json, -metrics-json, -cpuprofile), mkfleet's -obs-* flags and
// mkobs check's -slo. mkobs, which only inspects artifacts, registers no
// flag from this package.
package cliflags

import (
	"flag"
	"strings"

	"mklite/internal/fault"
	"mklite/internal/sched"
)

// Seed registers the -seed flag: the base seed every stochastic draw of the
// run derives from.
func Seed(fs *flag.FlagSet) *uint64 {
	return fs.Uint64("seed", 1, "base seed (vary for repetitions; all stochastic draws derive from it)")
}

// Workers registers the -workers flag controlling the internal/par fan-out
// width. The help text carries the determinism contract.
func Workers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "parallel fan-out width over independent runs (0 = GOMAXPROCS, 1 = sequential); output is identical at any width")
}

// Counters registers the -counters observability flag.
func Counters(fs *flag.FlagSet) *bool {
	return fs.Bool("counters", false, "collect and print mechanism counters")
}

// Metrics registers the -metrics observability flag.
func Metrics(fs *flag.FlagSet) *bool {
	return fs.Bool("metrics", false, "collect and print the metrics profile (phases, latency histograms, gauges)")
}

// Faults registers the -faults fault-injection flag; parse the value with
// ParseFaults after flag.Parse.
func Faults(fs *flag.FlagSet) *string {
	return fs.String("faults", "", "fault plan, e.g. 'straggler:node=3,factor=2;retry:max=2' (see docs/FAULTS.md)")
}

// ParseFaults parses a -faults value into a fault plan; an empty spec
// returns a nil plan (no faults).
func ParseFaults(spec string) (*fault.Plan, error) {
	return fault.ParsePlan(spec)
}

// SLO registers the -slo flag; the literal value "default" is resolved by
// the command (the stock facility SLO is experiments.DefaultFacilitySLO).
func SLO(fs *flag.FlagSet) *string {
	return fs.String("slo", "", "SLO spec, e.g. 'utilization_pct>=50;wait_p99_sec<=7200'; 'default' selects the stock facility SLO (see docs/OBSERVABILITY.md)")
}

// Sched registers the -sched scheduling-policy flag; parse the value with
// ParseSched after flag.Parse.
func Sched(fs *flag.FlagSet) *string {
	return fs.String("sched", "", "scheduling policy: "+kindList()+" (empty = each kernel's default; see docs/SCHED.md)")
}

// ParseSched parses a -sched value; the empty string (the default: keep each
// kernel's own policy) parses to the empty Kind.
func ParseSched(s string) (sched.Kind, error) {
	if s == "" {
		return "", nil
	}
	return sched.Parse(s)
}

func kindList() string {
	names := make([]string, 0, len(sched.Kinds()))
	for _, k := range sched.Kinds() {
		names = append(names, string(k))
	}
	return strings.Join(names, ", ")
}
