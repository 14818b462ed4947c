package mklite

// The paper artifacts are produced by internal/experiments and printed by
// cmd/mkexperiments. These tests hold the root package's view of them: the
// shapes and orderings that the README and EXPERIMENTS.md quote.

import (
	"strings"
	"testing"

	"mklite/internal/experiments"
)

func artifactCfg() experiments.Config {
	return experiments.Config{Reps: 2, Seed: 1, Quick: true}
}

func TestConformanceFacade(t *testing.T) {
	reports, tb, err := experiments.LTPResultsWorkers(0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"linux": 0, "mckernel": 32, "mos": 111}
	for _, rep := range reports {
		if rep.Failed != want[rep.Kernel] {
			t.Fatalf("%s: %d failures", rep.Kernel, rep.Failed)
		}
		if rep.Total != 3328 {
			t.Fatalf("total %d", rep.Total)
		}
	}
	if !strings.Contains(tb.Render(), "mckernel") {
		t.Fatal("render")
	}
}

func TestReproduceTableIFacade(t *testing.T) {
	rows, tb, err := experiments.TableI(artifactCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Percent != 100 {
		t.Fatalf("rows: %+v", rows)
	}
	if !strings.Contains(tb.Render(), "zones/s") {
		t.Fatal("render")
	}
}

func TestReproduceFigure5bFacade(t *testing.T) {
	fig, err := experiments.Figure5b(artifactCfg())
	if err != nil {
		t.Fatal(err)
	}
	if fig.Get("Linux") == nil || fig.Get("McKernel") == nil || fig.Get("mOS") == nil {
		t.Fatal("missing series")
	}
	out := fig.Render()
	if !strings.Contains(out, "fig5b") || !strings.Contains(out, "McKernel") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestReproduceBrkTraceFacade(t *testing.T) {
	traces, err := experiments.BrkTrace(experiments.Config{Reps: 1, Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatal("trace count")
	}
	for _, tr := range traces {
		if tr.Calls != tr.Queries+tr.Grows+tr.Shrinks {
			t.Fatal("call arithmetic")
		}
	}
}

func TestReproduceQuadrantFacade(t *testing.T) {
	rows, err := experiments.QuadrantComparison(artifactCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].Percent != 100 {
		t.Fatalf("rows: %+v", rows)
	}
}

func TestReproduceCoreSpecializationFacade(t *testing.T) {
	rows, err := experiments.CoreSpecialization(artifactCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatal("row count")
	}
	if rows[2].FOM <= rows[0].FOM {
		t.Fatal("mOS-64 should beat Linux-68")
	}
}

func TestReproduceBrkTraceS30Facade(t *testing.T) {
	res, err := experiments.BrkTraceS30()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0].Calls != 12053 {
		t.Fatalf("res: %+v", res)
	}
}

func TestRelativeFacade(t *testing.T) {
	fig, err := experiments.Figure5b(artifactCfg())
	if err != nil {
		t.Fatal(err)
	}
	rel := experiments.RelativeFigure(fig)
	if rel.Get("Linux") != nil {
		t.Fatal("baseline series kept")
	}
	mck := rel.Get("McKernel")
	if mck == nil || mck.Unit != "x Linux" {
		t.Fatalf("relative series: %+v", mck)
	}
	last := mck.Points[len(mck.Points)-1]
	if last.Median < 2 {
		t.Fatalf("relative miniFE at scale = %v, expected a cliff", last.Median)
	}
}
