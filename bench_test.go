package mklite

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation section. Each benchmark regenerates its artifact
// and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// prints both the harness cost and the reproduced result. Quick sweeps
// (three node counts per application) keep the suite tractable; run
// cmd/mkexperiments without -quick for the full sweeps.

import (
	"testing"

	"mklite/internal/experiments"
)

func benchCfg() experiments.Config { return experiments.Config{Reps: 3, Seed: 1, Quick: true} }

// BenchmarkFigure4 regenerates the headline comparison (all eight
// applications on three kernels) and reports the cross-application median
// improvement (paper: 1.09x) and the best point (paper: up to 3.8x).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Figure4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) != 8 {
			b.Fatal("figure count")
		}
		sum := experiments.SummarizeFigure4(figs)
		b.ReportMetric(sum.MedianImprovement, "median-x")
		b.ReportMetric(sum.BestImprovement, "best-x")
	}
}

// BenchmarkFigure5aCCSQCD regenerates the CCS-QCD memory-hierarchy figure
// and reports the largest-scale McKernel advantage in percent of the Linux
// median (paper: up to 139%).
func BenchmarkFigure5aCCSQCD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure5a(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		mck := fig.Get("McKernel")
		b.ReportMetric(mck.Points[len(mck.Points)-1].Median, "mck-pct-of-linux")
	}
}

// BenchmarkFigure5bMiniFE regenerates the MiniFE strong-scaling figure and
// reports the LWK/Linux ratio at the largest scale (paper: ~7x at 1,024
// nodes).
func BenchmarkFigure5bMiniFE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure5b(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		lin, mck := fig.Get("Linux"), fig.Get("McKernel")
		last := mck.Points[len(mck.Points)-1]
		var linMedian float64
		for _, p := range lin.Points {
			if p.Nodes == last.Nodes {
				linMedian = p.Median
			}
		}
		b.ReportMetric(last.Median/linMedian, "lwk-over-linux")
	}
}

// BenchmarkFigure6aLulesh regenerates the Lulesh scaling figure and reports
// the mid-scale McKernel advantage (paper: ~1.2-1.3x).
func BenchmarkFigure6aLulesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure6a(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		lin, mck := fig.Get("Linux"), fig.Get("McKernel")
		mid := mck.Points[len(mck.Points)/2]
		var linMedian float64
		for _, p := range lin.Points {
			if p.Nodes == mid.Nodes {
				linMedian = p.Median
			}
		}
		b.ReportMetric(mid.Median/linMedian, "lwk-over-linux")
	}
}

// BenchmarkFigure6bLAMMPS regenerates the LAMMPS figure and reports the
// largest-scale McKernel/Linux ratio (paper: below 1 — Linux wins).
func BenchmarkFigure6bLAMMPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure6b(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		lin, mck := fig.Get("Linux"), fig.Get("McKernel")
		last := mck.Points[len(mck.Points)-1]
		var linMedian float64
		for _, p := range lin.Points {
			if p.Nodes == last.Nodes {
				linMedian = p.Median
			}
		}
		b.ReportMetric(last.Median/linMedian, "lwk-over-linux")
	}
}

// BenchmarkTableILuleshBrk regenerates Table I and reports the regular-heap
// row's relative performance (paper: 121.0%).
func BenchmarkTableILuleshBrk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.TableI(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[2].Percent, "regular-heap-pct")
		b.ReportMetric(rows[1].Percent, "heap-off-pct")
	}
}

// BenchmarkLTPSuite runs the 3,328-case conformance catalogue against all
// three kernels and reports the failure counts (paper: 0 / 32 / 111).
func BenchmarkLTPSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reports, _, err := experiments.LTPResultsWorkers(0)
		if err != nil {
			b.Fatal(err)
		}
		for _, rep := range reports {
			switch rep.Kernel {
			case "mckernel":
				b.ReportMetric(float64(rep.Failed), "mckernel-failed")
			case "mos":
				b.ReportMetric(float64(rep.Failed), "mos-failed")
			}
		}
	}
}

// BenchmarkBrkTrace replays the section IV Lulesh heap trace and reports
// the Linux fault count that the LWK heaps avoid entirely.
func BenchmarkBrkTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		traces, err := experiments.BrkTrace(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range traces {
			if tr.Kernel == "Linux" {
				b.ReportMetric(float64(tr.HeapFaults), "linux-heap-faults")
				b.ReportMetric(float64(tr.CumulativeBytes)/float64(tr.PeakBytes), "churn-ratio")
			}
		}
	}
}

// BenchmarkProxyOptions regenerates the section IV McKernel proxy-option
// study (paper: +9% AMG 2013, +2% MiniFE at 16 nodes).
func BenchmarkProxyOptions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ProxyOptions(experiments.Config{Reps: 3, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[0].GainPercent, "amg-gain-pct")
		b.ReportMetric(res[1].GainPercent, "minife-gain-pct")
	}
}

// BenchmarkCCSQCDDDROnly regenerates the section IV DDR4-only comparison
// (paper: ~5% slowdown at scale).
func BenchmarkCCSQCDDDROnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spill, err := Run("ccs-qcd", McKernel, 64, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		ddr, err := Run("ccs-qcd", McKernel, 64, 1, &Options{ForceDDROnly: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((1-ddr.FOM/spill.FOM)*100, "ddr-slowdown-pct")
	}
}

// BenchmarkAblationNoise measures the FWQ noise signatures (section II's
// isolation claim).
func BenchmarkAblationNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		samples := MeasureNoise(uint64(i+1), 5000)
		for _, s := range samples {
			if s.Kernel == Linux {
				b.ReportMetric(s.NoisePercent, "linux-fwq-pct")
			}
		}
	}
}

// BenchmarkAblationOffload measures the syscall-offload design gap: proxy
// round trip (McKernel) vs thread migration (mOS) vs a native Linux trap.
func BenchmarkAblationOffload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.Ablations(experiments.Config{Reps: 1, Seed: uint64(i + 1), Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.OffloadRoundTrip["mckernel-proxy"].Seconds()*1e9, "proxy-ns")
		b.ReportMetric(a.OffloadRoundTrip["mos-migration"].Seconds()*1e9, "migration-ns")
		b.ReportMetric(a.IKCQueueingTail.Seconds()*1e6, "ikc-tail-us")
	}
}

// BenchmarkSingleRun measures the harness cost of one cluster run (the
// unit everything above is built from).
func BenchmarkSingleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run("milc", McKernel, 128, uint64(i+1), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuadrantMode regenerates the section III-B clustering-mode
// comparison and reports the share of the LWK advantage quadrant-mode
// Linux recovers.
func BenchmarkQuadrantMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.QuadrantComparison(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].Percent, "quadrant-linux-pct")
		b.ReportMetric(rows[2].Percent, "mckernel-snc4-pct")
	}
}

// BenchmarkCoreSpecialization regenerates the section III-A observation
// ("mOS using 64 cores beats Linux on 68 cores").
func BenchmarkCoreSpecialization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CoreSpecialization(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].Percent, "linux64-vs-linux68-pct")
		b.ReportMetric(rows[2].Percent, "mos64-vs-linux68-pct")
	}
}

// BenchmarkNodeSimOffloadStorm runs the discrete-event node model with a
// synchronised syscall burst (the LAMMPS contention mechanism) and reports
// the queueing tail.
func BenchmarkNodeSimOffloadStorm(b *testing.B) {
	cfg := NodeSimConfig{
		Ranks: 64, Steps: 10,
		ComputePerStepSecs: 2e-3,
		SyscallsPerStep:    8,
		SyscallServiceSecs: 3e-6,
		Barrier:            true,
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := SimulateNode(McKernel, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxOffloadLatencySec*1e6, "queue-tail-us")
	}
}
