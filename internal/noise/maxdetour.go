package noise

import (
	"math"

	"mklite/internal/sim"
)

// exactMaxRanks bounds MaxDetourRank's exact path. Up to this many ranks the
// maximum is sampled exactly by colouring (exactMax), whose draws grow with
// the number of detour events, not with the rank count; it keeps one sum per
// rank in a buffer of this length. Beyond it the order-statistic
// approximation is used (ROADMAP item 1, stage 2).
const exactMaxRanks = 1024

// MaxDetourRank samples the worst per-rank interference over `ranks` ranks
// during a window — the quantity a globally synchronising collective
// (MPI_Allreduce, barrier) absorbs every round — and which rank contributed
// it, the straggler the collective waited for. This is the mechanism of the
// paper's Linux cliffs: each rank's detour distribution is unchanged as the
// system grows, but the *maximum* over 131,072 ranks climbs into the heavy
// tail. A rank's detour is p.DetourIn on application core 1.
//
// It takes one of three paths:
//   - At a window the profile has a dense-window table for (Tabulate), the
//     maximum is one inverse-CDF lookup in the table of one rank's detour
//     law, F_D⁻¹(U^{1/K}), at any rank count. The table is exact up to its
//     grid (see denseTable). The rank is drawn uniformly: ranks are
//     independent and identically distributed, so the argmax is uniform and
//     independent of the maximum.
//   - Otherwise, up to exactMaxRanks ranks, the maximum is exact: it has the
//     law of the largest of `ranks` independent single-rank detours,
//     sampled by colouring each source's events onto ranks (exactMax). The
//     rank is the lowest one whose detour is the maximum.
//   - Otherwise it uses the order-statistic identity max(X_1..X_K) ~
//     F^{-1}(U^{1/K}) per source component and sums the per-source maxima
//     in place of the true max over ranks of each rank's summed detour.
//     That is an approximation whose bias has no fixed sign: against exact
//     sampling it reads high at K = 4,096 with 1 ms windows and low at
//     K = 131,072 with 30 ms windows under a daemon storm (ROADMAP item 1,
//     stage 2, which replaces it). Individual ranks are never materialised,
//     so the rank is -1 (source-level attribution only).
//
// The rank is -1 when the maximum is 0.
func MaxDetourRank(rng *sim.RNG, p *Profile, ranks int, window sim.Duration) (sim.Duration, int) {
	if ranks <= 0 || window <= 0 {
		return 0, -1
	}
	if t := p.denseAt(window); t != nil {
		return t.max(rng, ranks)
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

// exactMax is MaxDetourRank's exact path. It samples the maximum over
// `ranks` ranks of p.DetourIn(rng, 1, window) — core 1 being a generic
// application core, since core 0 is partitioned away from applications in
// all three kernels' deployments — and its lowest argmax, by the colouring
// theorem (Kingman, Poisson Processes, 1993): `ranks` independent
// Poisson(λ) counts have the joint law of one Poisson(ranks·λ) count whose
// events each land on an independently, uniformly chosen rank. So each
// source that fires on core 1 draws its events over all ranks at once, and
// each event adds one detour to the sum of a rank drawn without bias. The
// draws are O(sources + events), where a walk over ranks takes O(ranks ×
// sources) even though nearly every per-rank count is 0. Detours are never
// negative, so sums only grow: the running maximum over the updates is the
// maximum of the final sums, and taking the argmax on a tie at a lower rank
// leaves it at the lowest rank that reaches that maximum, with no scan over
// ranks.
func exactMax(rng *sim.RNG, p *Profile, ranks int, window sim.Duration) (sim.Duration, int) {
	// The sums live on the stack, zeroed on entry. Halo neighbourhoods and
	// single nodes, most calls, take the small array and skip clearing a
	// full exactMaxRanks of them.
	if ranks <= smallRanks {
		var sums [smallRanks]sim.Duration
		return colour(rng, p, sums[:ranks], window)
	}
	var sums [exactMaxRanks]sim.Duration
	return colour(rng, p, sums[:ranks], window)
}

// smallRanks is the rank count of one 64-rank node.
const smallRanks = 64

// colour is exactMax over len(sums) ranks, every sum 0 on entry.
func colour(rng *sim.RNG, p *Profile, sums []sim.Duration, window sim.Duration) (sim.Duration, int) {
	ranks := uint64(len(sums))
	var max sim.Duration
	argmax := -1
	for i := range p.Sources {
		s := &p.Sources[i]
		if !s.drawsOnAppCore() {
			continue // DetourIn draws nothing for it
		}
		lam, _ := s.lambda(window)
		for n := rng.Poisson(float64(ranks) * lam); n > 0; n-- {
			r := int(rng.Uint64n(ranks))
			sums[r] += s.sampleDetour(rng)
			if d := sums[r]; d > max || d == max && r < argmax {
				max, argmax = d, r
			}
		}
	}
	return max, argmax
}

// sourceMax approximates the maximum single-rank detour from one source
// across `ranks` ranks. Like sampleDetour it draws a base of exactly Mean
// when CV is 0 and of 0 when Mean is 0, and a source with Period 0 never
// fires.
func sourceMax(rng *sim.RNG, s *Source, ranks int, window sim.Duration) sim.Duration {
	if !s.drawsOnAppCore() {
		// Core-restricted sources (core 0 services) do not hit
		// application cores.
		return 0
	}
	lambda := float64(window) / float64(s.Period)
	// Total occurrences across the whole job.
	k := float64(rng.Poisson(float64(ranks) * lambda))
	if k < 1 {
		return 0
	}
	// Base (log-normal) component maximum via inverse CDF.
	var max sim.Duration
	if s.baseLogNormal() {
		u := math.Pow(rng.Float64(), 1/k)
		max = sim.DurationOf(s.lnQuantile(u))
	} else {
		max = s.Mean
	}
	// Heavy-tail component maximum.
	if s.TailProb > 0 {
		kt := float64(rng.Poisson(k * s.TailProb))
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
