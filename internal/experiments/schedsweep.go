package experiments

import (
	"context"
	"fmt"

	"mklite/internal/apps"
	"mklite/internal/cluster"
	"mklite/internal/kernel"
	"mklite/internal/par"
	"mklite/internal/sched"
	"mklite/internal/sim"
	"mklite/internal/stats"
)

// SchedSweepApps returns the applications the scheduler sweep exercises: one
// collective-bound code (MiniFE — allreduce every timestep, the paper's
// Linux-cliff workload) and one halo-bound code (LAMMPS — neighbourhood
// synchronisation only). The pair separates policies that reshape noise
// absorption at global sync points (gang) from ones that merely change local
// overhead (rr, adaptive).
func SchedSweepApps() []*apps.Spec {
	return []*apps.Spec{apps.MiniFE(), apps.LAMMPS()}
}

// measureNoiseGap runs the image's view under policy kind Reps times and
// summarises the noise-gap metric: the FWQ-style percentage of elapsed time
// lost to interference plus explicit scheduler charges,
// 100·(Breakdown.Noise+Breakdown.Sched)/Elapsed. Unlike a FOM comparison
// this isolates exactly the time a scheduling policy can move — compute,
// memory and wire time are policy-invariant. As in measureImage, every
// repetition runs against the one view.
func measureNoiseGap(cfg Config, img *cluster.Image, kind sched.Kind) (stats.Summary, error) {
	img, err := img.Sched(kind)
	if err != nil {
		return stats.Summary{}, err
	}
	gaps, err := par.MapWidthErr(cfg.Workers, cfg.Reps, func(rep int) (float64, error) {
		res, err := img.Run(context.TODO(), sim.StreamSeed(cfg.Seed, uint64(rep)), nil)
		if err != nil {
			return 0, err
		}
		if res.Elapsed <= 0 {
			return 0, nil
		}
		return 100 * float64(res.Breakdown.Noise+res.Breakdown.Sched) / float64(res.Elapsed), nil
	})
	if err != nil {
		return stats.Summary{}, err
	}
	return stats.Summarize(gaps), nil
}

// SchedSweep sweeps the full scheduler × kernel × node-count grid — every
// policy of sched.Kinds on all three kernels, up to the applications' 2,048
// node counts — and reports the noise-gap percentage per cell. One figure
// per application; series are named "<kernel>/<policy>".
//
// The sweep is the scheduler seam's headline experiment: on Linux at scale,
// gang scheduling's aligned windows absorb a collective's interference once
// instead of max-combining it across all ranks (slack is charged instead,
// and counted into the gap), tickless removes the tick-class sources
// outright, while rr pays for its naive quantum timer. On the LWKs the gap
// barely moves — there is almost no noise to reshape, which is the paper's
// isolation argument restated as a scheduling result.
//
// A policy reaches nothing a node's boot lays out but the policy itself and
// Linux's noise profile, so the sweep prepares one image per (application,
// kernel, node layout), takes each node count's view of it (layoutImages)
// and runs each policy as a view of that (Image.Sched). The images live
// only as long as the call, and share one noise table store.
func SchedSweep(cfg Config) ([]*stats.Figure, error) {
	cfg = cfg.normalize()
	ctx := cluster.ShareTables(context.TODO())
	kts := []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS}
	kinds := sched.Kinds()
	sweepApps := SchedSweepApps()

	return par.MapWidthErr(cfg.Workers, len(sweepApps), func(ai int) (*stats.Figure, error) {
		app := sweepApps[ai]
		nodes := cfg.nodeCounts(app)
		images, err := layoutImages(cfg, app, kts, nodes, func(kt kernel.Type, n int) (*cluster.Image, error) {
			return cluster.Prepare(ctx, cluster.Job{App: app, Kernel: kt, Nodes: n, Faults: cfg.Faults})
		}, func(kt kernel.Type, n int, err error) error {
			return fmt.Errorf("experiments: schedsweep %s on %v at %d nodes: %w", app.Name, kt, n, err)
		})
		if err != nil {
			return nil, err
		}
		cells, err := par.MapWidthErr(cfg.Workers, len(kts)*len(kinds)*len(nodes), func(i int) (stats.Summary, error) {
			ki, ni := i/(len(kinds)*len(nodes)), i%len(nodes)
			kt, kind, n := kts[ki], kinds[(i/len(nodes))%len(kinds)], nodes[ni]
			sum, err := measureNoiseGap(cfg, images[ki*len(nodes)+ni], kind)
			if err != nil {
				return stats.Summary{}, fmt.Errorf("experiments: schedsweep %s on %v/%s at %d nodes: %w",
					app.Name, kt, kind, n, err)
			}
			return sum, nil
		})
		if err != nil {
			return nil, err
		}
		fig := &stats.Figure{
			ID:    "schedsweep-" + app.Name,
			Title: fmt.Sprintf("%s: noise-gap %% of elapsed (interference + scheduler charges) by policy", app.Name),
		}
		for ki, kt := range kts {
			for pi, kind := range kinds {
				s := &stats.Series{Name: kt.String() + "/" + string(kind), Unit: "% of elapsed"}
				for ni, n := range nodes {
					s.Add(n, cells[(ki*len(kinds)+pi)*len(nodes)+ni])
				}
				fig.Series = append(fig.Series, s)
			}
		}
		return fig, nil
	})
}

// SchedSeparation reports how far apart the sweep's policies land on one
// kernel at one node count: the spread, in percentage points of noise gap,
// between the best and worst policy medians for the given application figure.
// The PR10 bench gate asserts the spread at the top node count on Linux stays
// well above zero — the seam must measurably separate policies, not just
// parse them.
func SchedSeparation(fig *stats.Figure, kt kernel.Type, nodes int) (spreadPP float64, ok bool) {
	lo, hi := 0.0, 0.0
	found := false
	prefix := kt.String() + "/"
	for _, s := range fig.Series {
		if len(s.Name) <= len(prefix) || s.Name[:len(prefix)] != prefix {
			continue
		}
		p, here := s.At(nodes)
		if !here {
			continue
		}
		if !found {
			lo, hi = p.Median, p.Median
			found = true
			continue
		}
		if p.Median < lo {
			lo = p.Median
		}
		if p.Median > hi {
			hi = p.Median
		}
	}
	return hi - lo, found
}
