package mklite

// The passivity half of the metrics contract (ISSUE PR4): the metrics
// registry observes the run, it never steers it. Every simulated output
// must be byte-identical with metrics off, metrics on, and the event ring
// on — sequentially and across par fan-out widths — and the aggregated
// profile itself must be width-independent. Run under -race this also
// proves registry isolation across workers (one registry per repetition,
// merged in index order).

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"mklite/internal/experiments"
	"mklite/internal/metrics"
)

// metricsModeDigest hashes a three-kernel comparison excluding the
// observation outputs themselves (Counters/TraceJSON are stripped like in
// traceModeDigest; MetricsJSON/MetricsText are json:"-" and never
// encoded).
func metricsModeDigest(t *testing.T, opts *Options) string {
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

// TestMetricsArePassive: attaching the registry, the event ring, or both
// must leave every simulated output byte-identical to a bare run —
// no RNG draws, no feedback into costs or scheduling.
func TestMetricsArePassive(t *testing.T) {
	want := metricsModeDigest(t, &Options{Observe: Observe{Trace: true}})
	modes := []struct {
		name string
		opts *Options
	}{
		{"metrics", &Options{Observe: Observe{Trace: true, Metrics: true}}},
		{"events", &Options{Observe: Observe{Trace: true, Events: true}}},
		{"metrics+events+counters", &Options{Observe: Observe{Trace: true, Metrics: true, Events: true, Counters: true}}},
	}
	for _, m := range modes {
		if got := metricsModeDigest(t, m.opts); got != want {
			t.Fatalf("digest with %s differs from metrics off:\n  off: %s\n  %s: %s\nthe metrics subsystem has fed back into the simulation", m.name, want, m.name, got)
		}
	}
}

// TestMetricsAreReproducible: the observation itself is deterministic —
// the same run records the same report bytes and the same folded stacks,
// twice over.
func TestMetricsAreReproducible(t *testing.T) {
	run := func() (Result, string) {
		r, err := Run("minife", McKernel, 32, 1, &Options{Observe: Observe{Metrics: true, Events: true}})
		if err != nil {
			t.Fatal(err)
		}
		folded, err := metrics.FoldedFromJSON(r.TraceJSON)
		if err != nil {
			t.Fatal(err)
		}
		return r, folded
	}
	a, aFolded := run()
	b, bFolded := run()
	if string(a.MetricsJSON) != string(b.MetricsJSON) {
		t.Fatal("same run, different metrics report bytes")
	}
	if a.MetricsText != b.MetricsText {
		t.Fatal("same run, different rendered metrics text")
	}
	if aFolded != bFolded {
		t.Fatal("same run, different folded flame stacks")
	}
	if len(a.MetricsJSON) == 0 || a.MetricsText == "" || aFolded == "" {
		t.Fatalf("metrics outputs empty: json=%d text=%d folded=%d",
			len(a.MetricsJSON), len(a.MetricsText), len(aFolded))
	}
}

// figure4MetricsDigest runs the quick Figure 4 grid with per-repetition
// registries attached at the given width; it returns the figure digest
// (metrics profile excluded) and the aggregated profile text.
func figure4MetricsDigest(t *testing.T, workers int) (string, []string) {
	t.Helper()
	h := sha256.New()
	figs, err := experiments.Figure4(experiments.Config{
		Reps: 2, Seed: 1, Quick: true, Workers: workers, Metrics: true,
	})
	if err != nil {
		t.Fatalf("Figure4(workers=%d, metrics): %v", workers, err)
	}
	var profiles []string
	for _, fig := range figs {
		fmt.Fprint(h, fig.Render())
		profiles = append(profiles, fig.MetricsText)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), profiles
}

// TestMetricsArePassiveUnderPar: a metrics-instrumented Figure 4 grid must
// render the exact bytes of the uninstrumented sequential run at width 1
// and at the production width, and the aggregated per-figure profile must
// itself be width-independent.
func TestMetricsArePassiveUnderPar(t *testing.T) {
	want := figure4Digest(t, 1)
	var wantProfiles []string
	for _, w := range []int{1, 0} {
		got, profiles := figure4MetricsDigest(t, w)
		if got != want {
			t.Fatalf("Figure 4 digest with metrics at width %d differs from metrics off:\n  off: %s\n  metrics: %s", w, want, got)
		}
		for i, p := range profiles {
			if p == "" {
				t.Fatalf("figure %d has no aggregated metrics profile at width %d", i, w)
			}
		}
		if wantProfiles == nil {
			wantProfiles = profiles
			continue
		}
		for i := range profiles {
			if profiles[i] != wantProfiles[i] {
				t.Fatalf("figure %d metrics profile differs between width 1 and width %d:\nwidth 1:\n%s\nwidth %d:\n%s",
					i, w, wantProfiles[i], w, profiles[i])
			}
		}
	}
}
