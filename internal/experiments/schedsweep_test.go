package experiments

import (
	"runtime"
	"slices"
	"testing"

	"mklite/internal/stats"
)

func sweepCfg(workers int) Config {
	return Config{Reps: 2, Seed: 1, Quick: true, Workers: workers}
}

func renderSweep(t *testing.T, workers int) (string, []*stats.Figure) {
	t.Helper()
	figs, err := SchedSweep(sweepCfg(workers))
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, f := range figs {
		out += f.Render()
	}
	return out, figs
}

// TestSchedSweepDeterminism: the sweep's rendered output is byte-identical
// at fan-out width 1 and GOMAXPROCS (run under -race in CI). Every cell and
// repetition derives its own RNG stream, and the adaptive policy's state is
// seeded per run, so scheduling order cannot leak into the figures. The
// quick sweep keeps MiniFE's full-scale 2,048-node point (nodeCounts keeps
// the last entry) and its Linux/cfs and Linux/gang series, which the
// TestPaperClaims E16 rows bound: the policy spread on Linux there and gang
// below cfs.
func TestSchedSweepDeterminism(t *testing.T) {
	seq, figs := renderSweep(t, 1)
	parl, _ := renderSweep(t, runtime.GOMAXPROCS(0))
	if seq != parl {
		t.Fatalf("schedsweep output differs between widths 1 and %d:\n--- width 1 ---\n%s\n--- width N ---\n%s",
			runtime.GOMAXPROCS(0), seq, parl)
	}
	if seq == "" {
		t.Fatal("schedsweep rendered nothing")
	}

	i := slices.IndexFunc(figs, func(f *stats.Figure) bool { return f.ID == "schedsweep-minife" })
	if i < 0 {
		t.Fatal("no schedsweep-minife figure")
	}
	for _, name := range []string{"Linux/cfs", "Linux/gang"} {
		s := figs[i].Get(name)
		if s == nil {
			t.Fatalf("no %s series", name)
		}
		if _, ok := s.At(2048); !ok {
			t.Fatalf("%s has no 2,048-node point (quick sweeps must keep the full-scale point)", name)
		}
	}
}
