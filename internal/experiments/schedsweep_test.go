package experiments

import (
	"runtime"
	"testing"

	"mklite/internal/kernel"
	"mklite/internal/stats"
)

func sweepCfg(workers int) Config {
	return Config{Reps: 2, Seed: 1, Quick: true, Workers: workers}
}

func renderSweep(t *testing.T, workers int) string {
	t.Helper()
	figs, err := SchedSweep(sweepCfg(workers))
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, f := range figs {
		out += f.Render()
	}
	return out
}

// TestSchedSweepDeterminism: the sweep's rendered output is byte-identical
// at fan-out width 1 and GOMAXPROCS (run under -race in CI). Every cell and
// repetition derives its own RNG stream, and the adaptive policy's state is
// seeded per run, so scheduling order cannot leak into the figures.
func TestSchedSweepDeterminism(t *testing.T) {
	seq := renderSweep(t, 1)
	parl := renderSweep(t, runtime.GOMAXPROCS(0))
	if seq != parl {
		t.Fatalf("schedsweep output differs between widths 1 and %d:\n--- width 1 ---\n%s\n--- width N ---\n%s",
			runtime.GOMAXPROCS(0), seq, parl)
	}
	if seq == "" {
		t.Fatal("schedsweep rendered nothing")
	}
}

// TestSchedSweepSeparatesPolicies: the acceptance criterion — at the top
// node count (2,048 under Quick too: nodeCounts keeps the last entry) on
// Linux, at least two scheduling policies must land measurably apart on the
// noise-gap metric. Gang's aligned windows vs cfs's max-over-ranks
// absorption differ by tens of points there; require >= 2pp so the gate has
// slack without ever passing a vacuous seam.
func TestSchedSweepSeparatesPolicies(t *testing.T) {
	figs, err := SchedSweep(sweepCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	var minife *stats.Figure
	for _, f := range figs {
		if f.ID == "schedsweep-minife" {
			minife = f
		}
	}
	if minife == nil {
		t.Fatal("no schedsweep-minife figure")
	}
	top := 0
	for _, s := range minife.Series {
		for _, p := range s.Points {
			if p.Nodes > top {
				top = p.Nodes
			}
		}
	}
	if top != 2048 {
		t.Fatalf("top node count = %d, want 2048 (quick sweeps must keep the full-scale point)", top)
	}
	spread, ok := SchedSeparation(minife, kernel.TypeLinux, top)
	if !ok {
		t.Fatalf("no Linux series at %d nodes", top)
	}
	if spread < 2 {
		t.Fatalf("policy separation on Linux at %d nodes = %.3fpp, want >= 2pp", top, spread)
	}

	// The specific mechanism: gang absorbs less interference than cfs at
	// scale (aligned windows vs max-over-ranks), even after its slack is
	// charged into the gap.
	cfs := minife.Get("Linux/cfs")
	gang := minife.Get("Linux/gang")
	if cfs == nil || gang == nil {
		t.Fatal("missing Linux/cfs or Linux/gang series")
	}
	pc, _ := cfs.At(top)
	pg, _ := gang.At(top)
	if pg.Median >= pc.Median {
		t.Fatalf("gang gap %.3f%% >= cfs gap %.3f%% at %d nodes — alignment should win at scale",
			pg.Median, pc.Median, top)
	}
}
