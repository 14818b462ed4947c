// Package experiments regenerates every table and figure of the paper's
// evaluation section from the simulation harness: Figure 4 (relative
// medians across all eight applications), Figures 5a/5b (CCS-QCD and
// MiniFE scaling), Figures 6a/6b (Lulesh 2.0 and LAMMPS scaling), Table I
// (Lulesh brk optimisations in DDR4), the LTP conformance counts of
// section III-D, the Lulesh brk trace and the McKernel proxy-option
// results of section IV, plus the design-choice ablations.
package experiments

import (
	"context"
	"fmt"

	"mklite/internal/apps"
	"mklite/internal/cluster"
	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/metrics"
	"mklite/internal/par"
	"mklite/internal/sched"
	"mklite/internal/sim"
	"mklite/internal/stats"
	"mklite/internal/trace"
)

// Config controls an experiment run.
type Config struct {
	// Reps is the number of repetitions per point; the paper runs
	// most applications five times and plots median with min/max.
	Reps int
	// Seed is the base seed; repetition i runs with the independent
	// stream seed sim.StreamSeed(Seed, i).
	Seed uint64
	// Quick restricts sweeps to three node counts per application so
	// the full suite stays test-budget friendly.
	Quick bool
	// Workers bounds the experiment fan-out's worker pool (par.MapWidthErr):
	// 0 selects GOMAXPROCS, 1 forces sequential execution. Results are
	// byte-identical at any width — every job derives its own RNG
	// stream from (Seed, index), enforced by determinism_test.go.
	Workers int
	// Counters attaches a per-repetition trace.Counters sink to every
	// run and merges the aggregates into the produced figures
	// (Figure.Counters). Each repetition owns its sink — created inside
	// the par closure, merged in index order after the join — so the
	// fan-out stays race-free and rendered figure bytes are unchanged.
	Counters bool
	// Metrics attaches a per-repetition metrics.Registry the same way:
	// one registry per repetition, created inside the worker closure,
	// merged in index order after the join. The merged report's rendered
	// tables land in Figure.MetricsText. Rendered figure bytes and run
	// digests are unchanged — metrics only observe.
	Metrics bool
	// SLO is an optional declarative service-level objective spec (the
	// internal/obs ParseSLO grammar, e.g. DefaultFacilitySLO) evaluated
	// against every facility-comparison leg; each leg's verdict lands in
	// its fleet.Result.SLO and an extra "slo" column of the rendered
	// table. The empty spec leaves all output byte-identical — the SLO
	// only observes, it never alters scheduling.
	SLO string
	// Sched forces a scheduling policy (see internal/sched) onto every run
	// whose job does not select one of its own — a job-level Sched wins, so
	// the schedsweep grid is unaffected. Empty keeps each kernel's default,
	// leaving every output byte-identical.
	Sched sched.Kind
	// Faults schedules deterministic fault injection (see internal/fault)
	// for every run behind a figure that does not carry a job-level plan
	// of its own: a non-nil cluster.Job.Faults wins outright and the two
	// plans are never merged (docs/FAULTS.md, "Precedence";
	// faults_precedence_test.go pins it). A nil or empty plan leaves all
	// output byte-identical to a faultless run — determinism_test.go
	// enforces it across fan-out widths.
	Faults *fault.Plan
}

// normalize fills defaults.
func (c Config) normalize() Config {
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// nodeCounts selects the sweep points for an application.
func (c Config) nodeCounts(app *apps.Spec) []int {
	all := app.NodeCounts
	if !c.Quick || len(all) <= 3 {
		return all
	}
	return []int{all[0], all[len(all)/2], all[len(all)-1]}
}

// measure runs one configuration Reps times — in parallel, each repetition
// on its own stream seed — and summarises the FOMs.
//
// Rep seeds are SplitMix64 stream splits of (Seed, rep), not Seed+rep:
// additive derivation made two experiments with consecutive base seeds
// share all but one rep seed, so their "independent" repetitions were
// almost entirely correlated.
//
// No caller reads a measurement's counters or metrics, so measure records
// neither, whatever cfg asks for.
func measure(cfg Config, job cluster.Job) (stats.Summary, error) {
	cfg.Counters, cfg.Metrics = false, false
	img, err := cluster.Prepare(context.TODO(), gridJob(cfg, job))
	if err != nil {
		return stats.Summary{}, err
	}
	sum, _, _, err := measureImage(cfg, img, fom)
	return sum, err
}

// repResult carries one repetition's observables through the fan-out join.
type repResult struct {
	value    float64
	counters *trace.Counters
	metrics  *metrics.Registry
}

// gridJob returns job as a cell of cfg's grid: under cfg's fault plan and
// scheduling policy where the job sets none of its own, with a sink that
// asks its image to record what cfg's repetition sinks record.
func gridJob(cfg Config, job cluster.Job) cluster.Job {
	if job.Faults == nil {
		job.Faults = cfg.Faults
	}
	if job.Sched == "" {
		job.Sched = cfg.Sched
	}
	job.Sink, _, _ = repSink(cfg)
	return job
}

// fom is the value a figure summarises: a run's figure of merit.
func fom(res cluster.Result) float64 { return res.FOM }

// measureImage runs img Reps times — in parallel, each repetition on its
// own stream seed — and summarises value of each repetition's Result, with
// optional mechanism counters: with cfg.Counters set, every repetition
// runs with its own trace sink (created inside the worker closure — sinks
// must never cross par workers) and the per-rep counter sets are merged in
// index order after the join, keeping the aggregate independent of
// scheduling.
//
// The repetitions differ only in their seed, and nothing seed-free depends
// on it, so every repetition runs against the one read-only image.
func measureImage(cfg Config, img *cluster.Image, value func(cluster.Result) float64) (stats.Summary, *trace.Counters, *metrics.Registry, error) {
	reps, err := par.MapWidthErr(cfg.Workers, cfg.Reps, func(rep int) (repResult, error) {
		sink, ctrs, reg := repSink(cfg)
		res, err := img.Run(context.TODO(), sim.StreamSeed(cfg.Seed, uint64(rep)), sink)
		if err != nil {
			return repResult{}, err
		}
		return repResult{value: value(res), counters: ctrs, metrics: reg}, nil
	})
	if err != nil {
		return stats.Summary{}, nil, nil, err
	}
	values := make([]float64, len(reps))
	var merged *trace.Counters
	if cfg.Counters {
		merged = trace.NewCounters()
	}
	var mergedReg *metrics.Registry
	if cfg.Metrics {
		mergedReg = metrics.NewRegistry()
	}
	for i, r := range reps {
		values[i] = r.value
		if merged != nil {
			merged.Merge(r.counters)
		}
		mergedReg.Merge(r.metrics)
	}
	return stats.Summarize(values), merged, mergedReg, nil
}

// repSink builds one repetition's sink and its backends: counters when
// cfg.Counters, a metrics registry when cfg.Metrics, and a nil sink when
// neither.
func repSink(cfg Config) (*trace.Sink, *trace.Counters, *metrics.Registry) {
	var ctrs *trace.Counters
	var reg *metrics.Registry
	var obs trace.Observer
	if cfg.Counters {
		ctrs = trace.NewCounters()
	}
	if cfg.Metrics {
		reg = metrics.NewRegistry()
		obs = reg
	}
	return trace.NewSinkObs(ctrs, nil, obs), ctrs, reg
}

// gridImages returns the node image of every (kernel, node count) cell of
// app's sweep under cfg from imgs, node-major: cell (ki, ni) is at
// ni*len(kts)+ki. It asks for every cell in one fan-out, so the distinct
// node layouts prepare concurrently while the cells of one layout wait for
// its image and take their views of it. Node-major order puts each
// kernel's first node count, which opens a layout, before the cells that
// wait for it, so the kernels' images prepare side by side.
func gridImages(imgs *cluster.Images, cfg Config, app *apps.Spec, kts []kernel.Type, nodes []int,
	cellErr func(kernel.Type, int, error) error) ([]*cluster.Image, error) {
	return par.MapWidthErr(cfg.Workers, len(kts)*len(nodes), func(i int) (*cluster.Image, error) {
		kt, n := kts[i%len(kts)], nodes[i/len(kts)]
		img, err := imgs.Image(gridJob(cfg, cluster.Job{App: app, Kernel: kt, Nodes: n}))
		if err != nil {
			return nil, cellErr(kt, n, err)
		}
		return img, nil
	})
}

// appFigure builds the three-kernel figure for one application by fanning
// the whole (kernel x node-count) grid out through one par.MapWidthErr: each
// cell measures its image from imgs (gridImages), a view of one image per
// kernel and node layout, so the grid parallelises without any
// coordination and the series are assembled from the index-ordered
// results. imgs is the experiment call's store, or Figure 4's fork of it
// for this application, dropped with the call.
func appFigure(imgs *cluster.Images, cfg Config, app *apps.Spec, id string) (*stats.Figure, error) {
	kts := []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS}
	nodes := cfg.nodeCounts(app)
	cellErr := func(kt kernel.Type, n int, err error) error {
		return fmt.Errorf("experiments: %s on %v at %d nodes: %w", app.Name, kt, n, err)
	}
	images, err := gridImages(imgs, cfg, app, kts, nodes, cellErr)
	if err != nil {
		return nil, err
	}
	type cell struct {
		sum      stats.Summary
		counters *trace.Counters
		metrics  *metrics.Registry
	}
	cells, err := par.MapWidthErr(cfg.Workers, len(kts)*len(nodes), func(i int) (cell, error) {
		ki, ni := i/len(nodes), i%len(nodes)
		sum, ctrs, reg, err := measureImage(cfg, images[ni*len(kts)+ki], fom)
		if err != nil {
			return cell{}, cellErr(kts[ki], nodes[ni], err)
		}
		return cell{sum: sum, counters: ctrs, metrics: reg}, nil
	})
	if err != nil {
		return nil, err
	}
	fig := &stats.Figure{ID: id, Title: fmt.Sprintf("%s (%s)", app.Name, app.Desc)}
	for ki, kt := range kts {
		s := &stats.Series{Name: kt.String(), Unit: app.Unit}
		for ni, n := range nodes {
			s.Add(n, cells[ki*len(nodes)+ni].sum)
		}
		fig.Series = append(fig.Series, s)
	}
	if cfg.Counters {
		merged := trace.NewCounters()
		for _, c := range cells {
			merged.Merge(c.counters)
		}
		fig.Counters = merged.Map()
	}
	if cfg.Metrics {
		merged := metrics.NewRegistry()
		for _, c := range cells {
			merged.Merge(c.metrics)
		}
		fig.MetricsText = merged.Report().Render()
	}
	return fig, nil
}

// RelativeFigure converts an absolute three-kernel figure into the paper's
// normalised form: McKernel and mOS medians relative to the Linux median at
// the same node count, in unit "x Linux" (Figure 4 / Figure 5a
// presentation).
func RelativeFigure(fig *stats.Figure) *stats.Figure {
	base := fig.Get("Linux")
	out := &stats.Figure{ID: fig.ID + "-rel", Title: fig.Title + " (relative to Linux)"}
	for _, s := range fig.Series {
		if s == base {
			continue
		}
		rel := s.RelativeTo(base)
		rel.Name = s.Name
		rel.Unit = "x Linux"
		out.Series = append(out.Series, rel)
	}
	return out
}

// Figure4 reproduces the headline comparison: every application swept over
// its node counts on all three kernels. The returned figures are absolute;
// apply RelativeFigure for the paper's normalised presentation. The
// applications share one store's noise tables, and each takes its images
// from a fork of it (Images.Fork), so an application's images die with its
// figure rather than with the call.
func Figure4(cfg Config) ([]*stats.Figure, error) {
	cfg = cfg.normalize()
	all := apps.All()
	imgs := cluster.NewImages()
	return par.MapWidthErr(cfg.Workers, len(all), func(i int) (*stats.Figure, error) {
		return appFigure(imgs.Fork(), cfg, all[i], "fig4-"+all[i].Name)
	})
}

// Figure4Summary summarises Figure 4 the way the paper's abstract does:
// the median relative improvement across all applications and node counts,
// and the best observed point.
type Figure4Summary struct {
	MedianImprovement float64 // e.g. 1.09 for +9%
	BestImprovement   float64 // e.g. 3.8 for +280%
	BestApp           string
	BestNodes         int
	BestKernel        string
}

// SummarizeFigure4 computes the cross-application summary.
func SummarizeFigure4(figs []*stats.Figure) Figure4Summary {
	var ratios []float64
	best := Figure4Summary{}
	for _, fig := range figs {
		base := fig.Get("Linux")
		if base == nil {
			continue
		}
		for _, s := range fig.Series {
			if s == base {
				continue
			}
			for _, p := range s.Points {
				bp, ok := base.At(p.Nodes)
				if !ok || bp.Median == 0 {
					continue
				}
				r := p.Median / bp.Median
				ratios = append(ratios, r)
				if r > best.BestImprovement {
					best.BestImprovement = r
					best.BestApp = fig.ID
					best.BestNodes = p.Nodes
					best.BestKernel = s.Name
				}
			}
		}
	}
	if len(ratios) > 0 {
		best.MedianImprovement = stats.Median(ratios)
	}
	return best
}

// Figure5a reproduces the CCS-QCD scaling comparison as a percentage of the
// Linux median ("% of Linux median" on the paper's y axis).
func Figure5a(cfg Config) (*stats.Figure, error) {
	cfg = cfg.normalize()
	abs, err := appFigure(cluster.NewImages(), cfg, apps.CCSQCD(), "fig5a")
	if err != nil {
		return nil, err
	}
	rel := RelativeFigure(abs)
	rel.ID = "fig5a"
	rel.Title = "CCS-QCD, clover fermion: % of Linux median (4 ranks/node, 32 threads)"
	for _, s := range rel.Series {
		s.Unit = "% of Linux"
		for i := range s.Points {
			s.Points[i].Median *= 100
			s.Points[i].Min *= 100
			s.Points[i].Max *= 100
			s.Points[i].Mean *= 100
		}
	}
	return rel, nil
}

// Figure5b reproduces the MiniFE strong-scaling plot (absolute Mflops).
func Figure5b(cfg Config) (*stats.Figure, error) {
	cfg = cfg.normalize()
	fig, err := appFigure(cluster.NewImages(), cfg, apps.MiniFE(), "fig5b")
	if err != nil {
		return nil, err
	}
	fig.Title = "miniFE 660x660x660: total Mflops (64 ranks/node, 4 threads)"
	return fig, nil
}

// Figure6a reproduces the Lulesh 2.0 scaling plot (zones/s).
func Figure6a(cfg Config) (*stats.Figure, error) {
	cfg = cfg.normalize()
	fig, err := appFigure(cluster.NewImages(), cfg, apps.Lulesh(), "fig6a")
	if err != nil {
		return nil, err
	}
	fig.Title = "LULESH 2.0 s50: zones/s (64 ranks/node, 2 threads)"
	return fig, nil
}

// Figure6b reproduces the LAMMPS scaling plot (timesteps/s).
func Figure6b(cfg Config) (*stats.Figure, error) {
	cfg = cfg.normalize()
	fig, err := appFigure(cluster.NewImages(), cfg, apps.LAMMPS(), "fig6b")
	if err != nil {
		return nil, err
	}
	fig.Title = "LAMMPS lj weak scaling: timesteps/s (64 ranks/node, 2 threads)"
	return fig, nil
}
