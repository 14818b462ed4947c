package noise

import (
	"math"

	"mklite/internal/sim"
)

// exactMaxRanks bounds the per-rank exact sampling path; beyond it the
// order-statistic approximation is used (sampling 131,072 ranks per
// timestep would dominate the harness's own runtime).
const exactMaxRanks = 1024

// MaxDetour samples the worst per-rank interference over `ranks` ranks
// during a window — the quantity a globally synchronising collective
// (MPI_Allreduce, barrier) absorbs every round. This is the mechanism of
// the paper's Linux cliffs: each rank's detour distribution is unchanged as
// the system grows, but the *maximum* over 131,072 ranks climbs into the
// heavy tail.
//
// For small rank counts the maximum is sampled exactly (per-rank). For
// large counts it uses the order-statistic identity max(X_1..X_K) ~
// F^{-1}(U^{1/K}): one inverse-CDF draw per source component instead of K
// samples. Per-source maxima are summed, a slight over-estimate of the true
// max-of-sums that is conservative in the same direction for every kernel.
func MaxDetour(rng *sim.RNG, p *Profile, ranks int, window sim.Duration) sim.Duration {
	d, _ := MaxDetourRank(rng, p, ranks, window)
	return d
}

// MaxDetourRank is MaxDetour that also reports which rank contributed the
// maximum — the straggler a collective waited for. On the exact per-rank
// path the argmax is known; on the order-statistic path individual ranks are
// never materialised, so the rank is -1 (source-level attribution only).
// The sampling sequence is identical to MaxDetour's, so callers may switch
// between them without perturbing the run.
func MaxDetourRank(rng *sim.RNG, p *Profile, ranks int, window sim.Duration) (sim.Duration, int) {
	if ranks <= 0 || window <= 0 {
		return 0, -1
	}
	if ranks <= exactMaxRanks {
		var max sim.Duration
		argmax := -1
		for r := 0; r < ranks; r++ {
			// Core index 1: a generic application core (core 0 is
			// partitioned away from applications in all three
			// kernels' deployments).
			if d := p.DetourIn(rng, 1, window); d > max {
				max = d
				argmax = r
			}
		}
		return max, argmax
	}
	var total sim.Duration
	for i := range p.Sources {
		//mklint:ignore seedflow the exact branch above returns first, so only one of the two loops ever draws in a given call
		total += sourceMax(rng, &p.Sources[i], ranks, window)
	}
	return total, -1
}

// sourceMax approximates the maximum single-rank detour from one source
// across `ranks` ranks.
func sourceMax(rng *sim.RNG, s *Source, ranks int, window sim.Duration) sim.Duration {
	if s.Period <= 0 || s.Mean <= 0 {
		return 0
	}
	if s.CoreFilter != nil && !s.CoreFilter(1) {
		// Core-restricted sources (core 0 services) do not hit
		// application cores.
		return 0
	}
	lambda := float64(window) / float64(s.Period)
	// Total occurrences across the whole job.
	k := float64(poisson(rng, float64(ranks)*lambda))
	if k < 1 {
		return 0
	}
	// Base (log-normal) component maximum via inverse CDF.
	var max sim.Duration
	if s.CV > 0 {
		u := math.Pow(rng.Float64(), 1/k)
		max = sim.DurationOf(s.lnQuantile(u))
	} else {
		max = s.Mean
	}
	// Heavy-tail component maximum.
	if s.TailProb > 0 {
		kt := float64(poisson(rng, k*s.TailProb))
		if kt >= 1 {
			u := math.Pow(rng.Float64(), 1/kt)
			tail := sim.DurationOf(s.TailScale.Seconds() / math.Pow(1-u, 1/s.TailAlpha))
			if s.TailCap > 0 && tail > s.TailCap {
				tail = s.TailCap
			}
			if tail > max {
				max = tail
			}
		}
	}
	return max
}

// normInv is the inverse of the standard normal CDF (Acklam's rational
// approximation, relative error < 1.15e-9 over (0,1)).
func normInv(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
