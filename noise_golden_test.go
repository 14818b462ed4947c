package mklite

// Golden test for the FWQ detour distribution *shape* — the paper's noise
// fingerprint, pinned through the metrics histogram path. Linux's timer/
// daemon/kworker activity produces a heavy tail: its p99.9 detour sits an
// order of magnitude above its median. The LWKs' residual housekeeping is
// so uniform that even p99.9 stays within a small factor of the median —
// the distribution property (not the mean!) that prevents collective
// amplification at scale (Fig. 5b).
//
// The configuration is golden: seed 3, 1 ms quanta, 5000 iterations. At
// that point the distributions are fully deterministic, so the assertions
// below are tight. If a noise-profile or histogram change moves these
// numbers, that is a behaviour change to be reviewed, not a flaky test.

import (
	"reflect"
	"testing"
)

func TestFWQDetourDistributionShape(t *testing.T) {
	runs := MeasureNoise(3, 5000)
	if len(runs) != 3 {
		t.Fatalf("want 3 kernels, got %d", len(runs))
	}
	byKernel := map[Kernel]NoiseSample{}
	for _, d := range runs {
		byKernel[d.Kernel] = d
	}

	linux := byKernel[Linux]
	if linux.Detours == 0 {
		t.Fatal("Linux recorded no detours: the noise profile is gone")
	}
	// Linux: heavy tail. p99.9 at least 10x the median detour.
	if r := linux.TailRatio(); r < 10 {
		t.Errorf("Linux detour tail ratio p99.9/p50 = %.1f, want >= 10 (p50=%.0fns p99.9=%.0fns)",
			r, linux.P50Ns, linux.P999Ns)
	}

	for _, k := range []Kernel{McKernel, MOS} {
		d := byKernel[k]
		if d.Detours == 0 {
			// A perfectly silent LWK would also satisfy the paper's
			// claim, but the profiles do model residual housekeeping.
			t.Errorf("%s recorded no detours: residual housekeeping is gone", k)
			continue
		}
		// LWKs: tight distribution. Even p99.9 within 2x the median.
		if r := d.TailRatio(); r > 2 {
			t.Errorf("%s detour tail ratio p99.9/p50 = %.1f, want <= 2 (p50=%.0fns p99.9=%.0fns)",
				k, r, d.P50Ns, d.P999Ns)
		}
		// And the LWK tail sits far below Linux's.
		if d.P999Ns*10 > linux.P999Ns {
			t.Errorf("%s p99.9 detour %.0fns is not an order of magnitude below Linux's %.0fns",
				k, d.P999Ns, linux.P999Ns)
		}
	}

	// The run must agree with itself on replay.
	again := MeasureNoise(3, 5000)
	for i := range runs {
		if !reflect.DeepEqual(runs[i], again[i]) {
			t.Fatalf("FWQ run for %s not reproducible", runs[i].Kernel)
		}
	}
}
