package noise

import (
	"math"

	"mklite/internal/sim"
	"mklite/internal/stats"
	"mklite/internal/trace"
)

// FWQResult holds the samples of a fixed-work-quantum run: the virtual time
// each iteration of a constant-work loop took on a noisy core.
type FWQResult struct {
	Quantum sim.Duration
	Samples []float64 // iteration times in microseconds
}

// RunFWQ executes the Fixed Work Quanta benchmark: iters iterations of a
// loop whose pure compute time is quantum, on the given core under the
// given noise profile. Interference stretches individual iterations.
func RunFWQ(rng *sim.RNG, p *Profile, core int, quantum sim.Duration, iters int) FWQResult {
	return RunFWQTo(rng, p, core, quantum, iters, nil)
}

// RunFWQTo is RunFWQ with per-source detour attribution into a trace sink
// (nil sink = exactly RunFWQ, same draws, same samples).
func RunFWQTo(rng *sim.RNG, p *Profile, core int, quantum sim.Duration, iters int, sink *trace.Sink) FWQResult {
	res := FWQResult{Quantum: quantum, Samples: make([]float64, iters)}
	for i := 0; i < iters; i++ {
		detour := p.DetourInTo(rng, core, quantum, sink)
		if detour > 0 {
			sink.CountKey(trace.KeyNoiseDetouredIters, 1)
			// The detour distribution only has entries for iterations
			// that were actually detoured — an undisturbed iteration
			// has no detour event, and padding the histogram with
			// zeros would hide the tail shape the paper plots.
			sink.Observe("fwq.detour_ns", int64(detour))
		}
		sink.CountKey(trace.KeyNoiseDetourNs, int64(detour))
		sink.Observe("fwq.iteration_ns", int64(quantum+detour))
		res.Samples[i] = (quantum + detour).Micros()
	}
	return res
}

// Summary returns the sample summary in microseconds.
func (r FWQResult) Summary() stats.Summary { return stats.Summarize(r.Samples) }

// NoisePercent is the classic FWQ metric: mean slowdown over the minimum
// observed iteration, in percent. A perfectly quiet system scores 0.
func (r FWQResult) NoisePercent() float64 {
	s := r.Summary()
	if s.Min == 0 {
		return 0
	}
	return (s.Mean - s.Min) / s.Min * 100
}

// MaxStretchPercent reports the worst single iteration relative to the
// minimum — the quantity collectives amplify.
func (r FWQResult) MaxStretchPercent() float64 {
	s := r.Summary()
	if s.Min == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Min * 100
}

// Utilization is the Fixed Time Quanta view of the same run: per iteration,
// the fraction of the quantum left to the application once its detour is
// taken, 1 − min(detour, quantum)/quantum (1.0 = noiseless). A detour is
// drawn for a span of time whether that span is a work quantum or a fixed
// window, so this is FTQ's utilisation at a window of one quantum, from the
// FWQ run's own draws.
func (r FWQResult) Utilization() stats.Summary {
	u := make([]float64, len(r.Samples))
	for i, us := range r.Samples {
		// Samples hold whole nanoseconds in microseconds; rounding
		// recovers the nanoseconds exactly.
		detour := sim.Duration(math.Round(us*float64(sim.Microsecond))) - r.Quantum
		u[i] = float64(r.Quantum-min(detour, r.Quantum)) / float64(r.Quantum)
	}
	return stats.Summarize(u)
}
