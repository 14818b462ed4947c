package noise

import (
	"math"
	"math/bits"

	"mklite/internal/sim"
)

// exactMaxRanks bounds the colouring that keeps one sum per rank: up to this
// many ranks the sums live in a stack array of this length (exactMax), above
// it in a table of the ranks an event hits (sparseMax).
const exactMaxRanks = 1024

// MaxDetourRank samples the worst per-rank interference over `ranks` ranks
// during a window — the quantity a globally synchronising collective
// (MPI_Allreduce, barrier) absorbs every round — and which rank contributed
// it, the straggler the collective waited for. This is the mechanism of the
// paper's Linux cliffs: each rank's detour distribution is unchanged as the
// system grows, but the *maximum* over 131,072 ranks climbs into the heavy
// tail. A rank's detour is p.DetourIn on application core 1.
//
// It takes one of two paths, both exact in law:
//   - At a window the profile has a table for (Tabulate attaches one where
//     Tabled holds), and at a rank count the table's grid resolves
//     (resolved), the maximum is one inverse-CDF lookup in the table of one
//     rank's detour law, F_D⁻¹(U^{1/K}). The table is exact up to its grid
//     (see denseTable). The rank is drawn uniformly: ranks are independent
//     and identically distributed, so the argmax is uniform and
//     independent of the maximum.
//   - Otherwise the maximum has the law of the largest of `ranks`
//     independent single-rank detours, sampled by colouring each source's
//     events onto ranks (exactMax up to exactMaxRanks ranks, sparseMax
//     above). The rank is the lowest one whose detour is the maximum. A
//     table's window takes this path at the rank counts its grid does not
//     resolve, such as a 27-rank halo at a window tabled for a 1,024-rank
//     collective, and a profile whose core-1 sources include an uncapped
//     Pareto tail gets no table (a finite grid cannot hold the tail), so it
//     takes this path at every window.
//
// On either path the rank is -1 only when the maximum is 0.
//
// What a call needs that does not depend on the seed, which path serves
// (window, ranks) and each source's e^{−K·λ}, is cached in p for the last
// two (window, ranks) it drew at (maxEntry), so a call draws its random
// numbers and little else. Like DetourIn's rate caches, the cache is the
// profile's own, so a profile, or a view of one (CloneTables), is drawn
// from by one goroutine at a time.
func MaxDetourRank(rng *sim.RNG, p *Profile, ranks int, window sim.Duration) (sim.Duration, int) {
	if ranks <= 0 || window <= 0 {
		return 0, -1
	}
	e := p.maxAt(window, ranks)
	if t := p.maxes[e].tab; t != nil {
		return t.max(rng, ranks)
	}
	if ranks <= exactMaxRanks {
		return exactMax(rng, p, e, ranks, window)
	}
	return sparseMax(rng, p, e, ranks, window)
}

// maxEntry is MaxDetourRank's seed-free state at one (window, ranks): tab,
// the table that serves it, or nil when the profile has none at the window
// or it does not resolve the rank count. The entry at index i of
// Profile.maxes without a table keeps each core-1 source's e^{−K·λ} in
// that source's rate.maxExp[i]. The step loop alternates a collective over
// all ranks and a halo over at most 27 at one window, so a profile keeps
// two entries.
type maxEntry struct {
	window sim.Duration
	ranks  int
	tab    *denseTable
}

// maxAt returns the index of p's entry for (window, ranks), filling the
// older entry on a miss.
func (p *Profile) maxAt(window sim.Duration, ranks int) int {
	for i := range p.maxes {
		if e := &p.maxes[i]; e.window == window && e.ranks == ranks {
			return i
		}
	}
	i := p.older
	p.older ^= 1
	e := &p.maxes[i]
	e.window, e.ranks, e.tab = window, ranks, nil
	if t := p.denseAt(window); t != nil && t.resolves(ranks) {
		e.tab = t
		return i
	}
	if len(p.rates) != len(p.Sources) {
		p.rates = make([]rate, len(p.Sources))
	}
	for j := range p.Sources {
		if s := &p.Sources[j]; s.drawsOnAppCore() {
			p.rates[j].maxExp[i] = expNegBelowCutoff(float64(ranks) * (float64(window) / float64(s.Period)))
		}
	}
	return i
}

// exactMax is MaxDetourRank's colouring path up to exactMaxRanks ranks. It
// samples the maximum over `ranks` ranks of p.DetourIn(rng, 1, window) —
// core 1 being a generic application core, since core 0 is partitioned
// away from applications in all three kernels' deployments — and its
// lowest argmax, by the colouring theorem (Kingman, Poisson Processes,
// 1993): `ranks` independent Poisson(λ) counts have the joint law of one
// Poisson(ranks·λ) count whose events each land on an independently,
// uniformly chosen rank. So each source that fires on core 1 draws its
// events over all ranks at once, and each event adds one detour to the sum
// of a rank drawn without bias. The draws are O(sources + events), where a
// walk over ranks takes O(ranks × sources) even though nearly every
// per-rank count is 0. Detours are never negative, so sums only grow: the
// running maximum over the updates is the maximum of the final sums, and
// taking the argmax on a tie at a lower rank leaves it at the lowest rank
// that reaches that maximum, with no scan over ranks.
func exactMax(rng *sim.RNG, p *Profile, e, ranks int, window sim.Duration) (sim.Duration, int) {
	// The sums live on the stack, zeroed on entry. Halo neighbourhoods and
	// single nodes, most calls, take the small array and skip clearing a
	// full exactMaxRanks of them.
	if ranks <= smallRanks {
		var sums [smallRanks]sim.Duration
		return colour(rng, p, e, sums[:ranks], window)
	}
	var sums [exactMaxRanks]sim.Duration
	return colour(rng, p, e, sums[:ranks], window)
}

// smallRanks is the rank count of one 64-rank node.
const smallRanks = 64

// colour is exactMax over len(sums) ranks, every sum 0 on entry, with the
// Poisson counts' e^{−K·λ} in slot e of the rates (maxAt).
func colour(rng *sim.RNG, p *Profile, e int, sums []sim.Duration, window sim.Duration) (sim.Duration, int) {
	ranks := uint64(len(sums))
	var max sim.Duration
	argmax := -1
	for i := range p.Sources {
		s := &p.Sources[i]
		if !s.drawsOnAppCore() {
			continue // DetourIn draws nothing for it
		}
		lam := float64(window) / float64(s.Period)
		for n := rng.PoissonExp(float64(ranks)*lam, p.rates[i].maxExp[e]); n > 0; n-- {
			r := int(rng.Uint64n(ranks))
			sums[r] += s.sampleDetour(rng)
			if d := sums[r]; d > max || d == max && r < argmax {
				max, argmax = d, r
			}
		}
	}
	return max, argmax
}

// sparseMax is exactMax above exactMaxRanks ranks, drawing exactly what it
// would draw, with the sums of only the ranks an event hits: a call above
// 1,024 ranks that no table serves draws few events (an unresolved window
// is one whose maximum is likely 0), so a rank-long array would be nearly
// all zeros. The sums live in an open-addressed table, at most half full:
// on the stack when the call expects few enough events, else on the heap,
// sized for twice the events it expects, and doubled whenever more ranks
// are hit than it holds.
func sparseMax(rng *sim.RNG, p *Profile, e, ranks int, window sim.Duration) (sim.Duration, int) {
	var slots [sparseSlots]rankSum
	tab := slots[:]
	if hits := min(float64(ranks)*p.events(window), float64(ranks)); 4*hits > sparseSlots {
		tab = make([]rankSum, 1<<bits.Len(uint(2*hits)))
	}
	used := 0
	var max sim.Duration
	argmax := -1
	for i := range p.Sources {
		s := &p.Sources[i]
		if !s.drawsOnAppCore() {
			continue
		}
		lam := float64(window) / float64(s.Period)
		for n := rng.PoissonExp(float64(ranks)*lam, p.rates[i].maxExp[e]); n > 0; n-- {
			r := int(rng.Uint64n(uint64(ranks)))
			d := s.sampleDetour(rng)
			j := slotOf(tab, r)
			if tab[j].key == 0 {
				if 2*(used+1) > len(tab) {
					tab = regrow(tab)
					j = slotOf(tab, r)
				}
				tab[j].key = r + 1
				used++
			}
			tab[j].sum += d
			if sum := tab[j].sum; sum > max || sum == max && r < argmax {
				max, argmax = sum, r
			}
		}
	}
	return max, argmax
}

// sparseSlots is the length of sparseMax's stack table, a power of two: it
// serves calls that expect up to 64 events, and holds 128 ranks hit
// before it moves to the heap, against 12 to 24 events for the calls a
// paper figure leaves to colouring above 1,024 ranks.
const sparseSlots = 256

// rankSum is one slot of sparseMax's table: key is the rank plus one, 0 in
// an empty slot, and sum its detour sum.
type rankSum struct {
	key int
	sum sim.Duration
}

// slotOf returns the slot of rank r in tab, whose length is a power of two
// and which has an empty slot: r's own, or the empty one where r goes.
// Ranks are drawn uniformly, so their low bits spread them evenly.
func slotOf(tab []rankSum, r int) int {
	mask := len(tab) - 1
	j := r & mask
	for tab[j].key != 0 && tab[j].key != r+1 {
		j = (j + 1) & mask
	}
	return j
}

// regrow returns a table twice as long holding tab's entries.
func regrow(tab []rankSum) []rankSum {
	grown := make([]rankSum, 2*len(tab))
	for _, e := range tab {
		if e.key != 0 {
			grown[slotOf(grown, e.key-1)] = e
		}
	}
	return grown
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
