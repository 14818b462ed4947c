package mklite

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"mklite/internal/experiments"
	"mklite/internal/fault"
	"mklite/internal/sim"
)

// The determinism contract (internal/sim): a run is a pure function of
// (model, seed). mklint enforces the static half; this file is the runtime
// half — a seed-replay regression: identical seeds must reproduce results
// byte for byte, and the digest must not be vacuous (different seeds must
// diverge). It is meant to run under `go test -race`, where the cooperative
// Proc handoff is also checked for real data races.

// runDigest executes a full three-kernel comparison plus a rendered stats
// figure and hashes every observable output: FOMs, mechanism breakdowns,
// heap accounting, step traces and the figure's table rendering.
func runDigest(t *testing.T, seed uint64) string {
	t.Helper()
	h := sha256.New()

	results, err := Compare("minife", 32, seed, &Options{Observe: Observe{Trace: true}})
	if err != nil {
		t.Fatalf("Compare(minife, 32, %d): %v", seed, err)
	}
	enc := json.NewEncoder(h)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			t.Fatalf("encoding result: %v", err)
		}
	}

	// A scaling figure exercises the experiments/stats table path the
	// paper's plots are generated from.
	fig, err := experiments.Figure5b(experiments.Config{Reps: 2, Seed: seed, Quick: true})
	if err != nil {
		t.Fatalf("Figure5b(seed %d): %v", seed, err)
	}
	fmt.Fprint(h, fig.Render())
	fmt.Fprint(h, experiments.RelativeFigure(fig).Render())

	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSeedReplayDeterminism(t *testing.T) {
	first := runDigest(t, 1)
	second := runDigest(t, 1)
	if first != second {
		t.Fatalf("same seed, different digests:\n  run 1: %s\n  run 2: %s\nnondeterminism has crept into the simulation core", first, second)
	}
}

// parWidths are the fan-out widths the equivalence tests sweep: pure
// sequential (1, zero goroutines), minimal contention (2), and the
// production default (0 = GOMAXPROCS). The determinism contract requires
// the digest to be a function of (model, seed) only — never of the width.
var parWidths = []int{1, 2, 0}

// figure4Digest runs the quick-mode Figure 4 subset (all eight
// applications, three node counts each) at the given par fan-out width and
// hashes every rendered figure.
func figure4Digest(t *testing.T, workers int) string {
	t.Helper()
	h := sha256.New()
	figs, err := experiments.Figure4(experiments.Config{
		Reps: 2, Seed: 1, Quick: true, Workers: workers,
	})
	if err != nil {
		t.Fatalf("Figure4(workers=%d): %v", workers, err)
	}
	for _, fig := range figs {
		fmt.Fprint(h, fig.Render())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// ltpDigest runs the three-kernel LTP conformance sweep at the given width
// and hashes the reports plus the rendered table.
func ltpDigest(t *testing.T, workers int) string {
	t.Helper()
	h := sha256.New()
	reports, table, err := experiments.LTPResultsWorkers(workers)
	if err != nil {
		t.Fatalf("LTPResultsWorkers(%d): %v", workers, err)
	}
	enc := json.NewEncoder(h)
	for _, rep := range reports {
		if err := enc.Encode(rep); err != nil {
			t.Fatalf("encoding report: %v", err)
		}
	}
	fmt.Fprint(h, table.Render())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestParallelMatchesSequentialFigure4: fanning the Figure 4 grid out
// through par.MapWidthErr must reproduce the sequential bytes exactly —
// worker scheduling must never leak into results. Run under -race this also
// exercises the pool for real data races.
func TestParallelMatchesSequentialFigure4(t *testing.T) {
	want := figure4Digest(t, parWidths[0])
	for _, w := range parWidths[1:] {
		if got := figure4Digest(t, w); got != want {
			t.Fatalf("Figure 4 digest differs between width %d and width 1:\n  width 1: %s\n  width %d: %s\npar fan-out has leaked scheduling into results", w, want, w, got)
		}
	}
}

// TestParallelMatchesSequentialLTP: the same equivalence for the LTP
// conformance sweep, whose three kernels boot inside worker closures.
func TestParallelMatchesSequentialLTP(t *testing.T) {
	want := ltpDigest(t, parWidths[0])
	for _, w := range parWidths[1:] {
		if got := ltpDigest(t, w); got != want {
			t.Fatalf("LTP digest differs between width %d and width 1:\n  width 1: %s\n  width %d: %s", w, want, w, got)
		}
	}
}

// traceModeDigest hashes a three-kernel comparison with the given run
// options, excluding the trace outputs themselves (Counters/TraceJSON are
// the observation, not the observed run).
func traceModeDigest(t *testing.T, opts *Options) string {
	t.Helper()
	h := sha256.New()
	results, err := Compare("minife", 32, 1, opts)
	if err != nil {
		t.Fatalf("Compare(minife, 32, 1): %v", err)
	}
	enc := json.NewEncoder(h)
	for _, r := range results {
		r.Counters = nil
		r.TraceJSON = nil
		if err := enc.Encode(r); err != nil {
			t.Fatalf("encoding result: %v", err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTracingIsPassive: the trace subsystem observes the run, it never
// steers it. Attaching the counter sink or the full event ring must leave
// every simulated output byte-identical to a tracing-off run — no RNG
// draws, no feedback into costs or scheduling.
func TestTracingIsPassive(t *testing.T) {
	want := traceModeDigest(t, &Options{Observe: Observe{Trace: true}})
	modes := []struct {
		name string
		opts *Options
	}{
		{"counters", &Options{Observe: Observe{Trace: true, Counters: true}}},
		{"counters+events", &Options{Observe: Observe{Trace: true, Counters: true, Events: true}}},
	}
	for _, m := range modes {
		if got := traceModeDigest(t, m.opts); got != want {
			t.Fatalf("digest with %s tracing differs from tracing off:\n  off: %s\n  %s: %s\nthe trace subsystem has fed back into the simulation", m.name, want, m.name, got)
		}
	}
}

// figure4CountersDigest is figure4Digest with the counter sinks attached;
// it additionally returns the per-figure merged counters so the caller can
// assert the counts themselves are width-independent.
func figure4CountersDigest(t *testing.T, workers int) (string, []map[string]int64) {
	t.Helper()
	h := sha256.New()
	figs, err := experiments.Figure4(experiments.Config{
		Reps: 2, Seed: 1, Quick: true, Workers: workers, Counters: true,
	})
	if err != nil {
		t.Fatalf("Figure4(workers=%d, counters): %v", workers, err)
	}
	var counters []map[string]int64
	for _, fig := range figs {
		fmt.Fprint(h, fig.Render())
		counters = append(counters, fig.Counters)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), counters
}

// TestTracingIsPassiveUnderPar: the same passivity across the par fan-out —
// a counter-instrumented Figure 4 grid must render the exact bytes of the
// uninstrumented sequential run at every width, and the merged counters
// themselves must not depend on the width (per-repetition sinks merged in
// index order). Run under -race this also proves sink isolation across
// workers.
func TestTracingIsPassiveUnderPar(t *testing.T) {
	want := figure4Digest(t, 1)
	wantCounters := []map[string]int64(nil)
	for _, w := range []int{1, 0} {
		got, ctrs := figure4CountersDigest(t, w)
		if got != want {
			t.Fatalf("Figure 4 digest with counters at width %d differs from tracing off:\n  off: %s\n  counters: %s", w, want, got)
		}
		if wantCounters == nil {
			wantCounters = ctrs
			continue
		}
		for i := range ctrs {
			if fmt.Sprint(ctrs[i]) != fmt.Sprint(wantCounters[i]) {
				t.Fatalf("figure %d counters differ between width 1 and width %d:\n  width 1: %v\n  width %d: %v", i, w, wantCounters[i], w, ctrs[i])
			}
		}
	}
}

// figure5bFaultsDigest runs the quick Figure 5b sweep at the given fan-out
// width with the given fault plan attached to every job, hashing the
// rendered figure.
func figure5bFaultsDigest(t *testing.T, workers int, plan *fault.Plan) string {
	t.Helper()
	fig, err := experiments.Figure5b(experiments.Config{
		Reps: 2, Seed: 1, Quick: true, Workers: workers, Faults: plan,
	})
	if err != nil {
		t.Fatalf("Figure5b(workers=%d, faults=%v): %v", workers, plan, err)
	}
	h := sha256.New()
	fmt.Fprint(h, fig.Render())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestEmptyFaultPlanIsByteIdentical: the fault subsystem's determinism
// contract (internal/fault, point 1): a nil or empty Plan must leave every
// simulated output byte-identical to a run with no fault subsystem at all —
// the injector is nil, no stream is drawn, no branch is taken. Checked at
// fan-out widths 1 and GOMAXPROCS so the guarantee holds under the par
// pipeline too, and meant to run under -race like the rest of this file.
// An active plan must diverge, or this test would pass vacuously.
func TestEmptyFaultPlanIsByteIdentical(t *testing.T) {
	want := figure5bFaultsDigest(t, 1, nil)
	for _, w := range []int{1, 0} {
		for _, plan := range []*fault.Plan{nil, {}, {Stragglers: []fault.Straggler{}}} {
			if got := figure5bFaultsDigest(t, w, plan); got != want {
				t.Fatalf("digest with empty plan %+v at width %d differs from faultless run:\n  faultless: %s\n  got:       %s\nan empty fault plan has perturbed the simulation", plan, w, want, got)
			}
		}
	}
	active := &fault.Plan{Stragglers: []fault.Straggler{{Node: 0, Extra: 2 * sim.Millisecond}}}
	if got := figure5bFaultsDigest(t, 1, active); got == want {
		t.Fatalf("digest with an active straggler plan equals the faultless digest (%s): faults are not being injected", want)
	}
}

// TestFaultPlanWidthIndependent: an *active* plan's outcome must also be a
// pure function of (model, seed) — never of the par fan-out width. The
// injector is per-run state created inside the worker closure (mklint's
// parshare rule), so sequential and GOMAXPROCS runs must agree byte for byte.
func TestFaultPlanWidthIndependent(t *testing.T) {
	plan := &fault.Plan{
		Stragglers: []fault.Straggler{{Node: 0, Extra: 2 * sim.Millisecond}},
		Link:       &fault.LinkFault{LossProb: 0.001, Timeout: 50 * sim.Microsecond},
	}
	want := figure5bFaultsDigest(t, 1, plan)
	if got := figure5bFaultsDigest(t, 0, plan); got != want {
		t.Fatalf("active-plan digest differs between width 1 and GOMAXPROCS:\n  width 1: %s\n  width 0: %s\nfault draws have leaked across par workers", want, got)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	// Guards the digest against vacuity: if hashing ignored the actual
	// results (or the model ignored the seed), every digest would
	// collide and TestSeedReplayDeterminism would prove nothing.
	a := runDigest(t, 1)
	b := runDigest(t, 2)
	if a == b {
		t.Fatalf("seeds 1 and 2 produced identical digests (%s): the digest or the model is ignoring the seed", a)
	}
}
