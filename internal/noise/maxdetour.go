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
// samples. Per-source maxima are summed in place of the true max over ranks
// of each rank's summed detour. That is an approximation whose bias has no
// fixed sign: against exact sampling it reads high at K = 4,096 with 1 ms
// windows and low at K = 131,072 with 30 ms windows under the facility
// storm (ROADMAP item 1, stage 2, which replaces it).
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
		return exactMax(rng, p, ranks, window)
	}
	var total sim.Duration
	for i := range p.Sources {
		total += sourceMax(rng, &p.Sources[i], ranks, window)
	}
	return total, -1
}

// rankPlan holds one source's per-call invariants for exactMax.
type rankPlan struct {
	s     *Source
	lam   float64 // Poisson mean of the per-rank occurrence count
	l     float64 // exp(-lam), Knuth's stopping product
	zero  uint64  // the count is 0 iff the first uniform's mantissa is <= zero
	knuth bool    // lam <= sim.PoissonNormalCutoff
}

// plansOnStack is how many sources exactMax plans without allocating; the
// canonical profiles have at most five, six with a daemon storm added.
const plansOnStack = 8

// exactMax is MaxDetourRank's exact per-rank path. It makes exactly the
// draws of `ranks` successive p.DetourIn(rng, 1, window) calls — core 1
// being a generic application core, since core 0 is partitioned away from
// applications in all three kernels' deployments — and returns their
// maximum and its first rank. Nearly every (rank, source) count is 0, so
// each source's invariants are resolved once per call, and the first step
// of Knuth's product method is taken on the uniform's integer mantissa:
// sim.RNG.Float64 is float64(Uint64()>>11)/2^53, so the first uniform is
// <= exp(-λ), making the count 0, exactly when its mantissa is
// <= floor(exp(-λ)·2^53). A larger mantissa goes on to
// sim.RNG.PoissonKnuthFrom with that same uniform, as PoissonExp does.
func exactMax(rng *sim.RNG, p *Profile, ranks int, window sim.Duration) (sim.Duration, int) {
	var buf [plansOnStack]rankPlan
	plans := buf[:0]
	for i := range p.Sources {
		s := &p.Sources[i]
		if !s.appliesTo(1) || s.Period <= 0 {
			continue // SampleWindow draws nothing for it
		}
		lam, l := s.lambda(window)
		plans = append(plans, rankPlan{s: s, lam: lam, l: l, zero: uint64(l * (1 << 53)), knuth: lam <= sim.PoissonNormalCutoff})
	}
	var max, total sim.Duration
	argmax := -1
	cur := 0 // the rank `total` sums; ranks skipped by nextCount sum to 0
	r, i := 0, 0
	for {
		var m uint64
		r, i, m = nextCount(rng, plans, ranks, r, i)
		if r != cur {
			if total > max {
				max, argmax = total, cur
			}
			cur, total = r, 0
		}
		if r == ranks {
			return max, argmax
		}
		total += plans[i].occurrences(rng, m)
		i++
	}
}

// nextCount draws the counts of exactMax's (rank, plan) positions from
// (r, i) on, in rank-major order, and stops at the first one it cannot
// settle as 0 from its first uniform: a Knuth count whose mantissa m is
// above the plan's zero threshold, or a normal-approximation count. It
// returns that position and m, or r == ranks once every position is
// settled. It makes no calls, so the loop that nearly every draw takes
// keeps its state in registers.
func nextCount(rng *sim.RNG, plans []rankPlan, ranks, r, i int) (int, int, uint64) {
	for ; r < ranks; r, i = r+1, 0 {
		for ; i < len(plans); i++ {
			if !plans[i].knuth {
				return r, i, 0
			}
			if m := rng.Uint64() >> 11; m > plans[i].zero {
				return r, i, m
			}
		}
	}
	return r, 0, 0
}

// occurrences draws the rest of one rank's count for the source and sums
// that many detours. For a Knuth count, m is the first uniform's mantissa,
// already known to be above pl.zero.
func (pl *rankPlan) occurrences(rng *sim.RNG, m uint64) sim.Duration {
	var n int
	if pl.knuth {
		n = rng.PoissonKnuthFrom(float64(m)/(1<<53), pl.l)
	} else {
		n = rng.PoissonExp(pl.lam, 0)
	}
	var total sim.Duration
	for ; n > 0; n-- {
		total += pl.s.sampleDetour(rng)
	}
	return total
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
