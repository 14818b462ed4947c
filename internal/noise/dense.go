package noise

import (
	"math"
	"math/cmplx"
	"slices"
	"sync"

	"mklite/internal/sim"
)

// Tabled windows. A max-of-K call colours O(K·Λ) detour events, Λ =
// Σ window/Period over the profile's core-1 sources: a collective under the
// facility's daemon storm colours about 20 events per rank, and a Linux
// collective over 1,024 ranks in a 40 ms window about 900. Yet the law of
// one rank's summed detour D depends only on the profile and the window. D
// is compound Poisson: its characteristic function is exp(Σ λ_s(φ_s − 1))
// over the profile's core-1 sources, φ_s the characteristic function of
// one detour of source s. A table of D's survival function on a grid,
// built once per window by FFT, turns the maximum over K independent ranks
// into one inverse-CDF lookup at any K: max ~ F_D⁻¹(U^{1/K}). Tabled says
// at which (window, K) a table is worth building and exact enough to use.

// denseGrid is the number of grid points of a table and the length of the
// FFT that builds it.
const denseGrid = 1024

// denseTail bounds the probability that one rank's detour exceeds the
// grid. The grid's span is chosen so that the tail beyond it is smaller,
// and the mass there, which the circular convolution would wrap onto the
// grid's low end, stays below this bound too.
const denseTail = 1e-10

// denseFloor is the smallest grid probability a table keeps. Values below
// it are FFT round-off (relative error ~1e-16 per point) and are zeroed, so
// a table's survival ends at exactly 0; at most denseGrid·denseFloor of
// mass goes, which moves a maximum's CDF by at most K·1e-12.
const denseFloor = 1e-15

// denseZ is the standard-normal quantile distance at which a log-normal
// detour's mass left outside its grid range is below 1e-17.
const denseZ = 8.5

// denseTwiddle holds e^{−2πik/denseGrid} for k < denseGrid/2: the FFT's
// roots of unity. It is filled once, at package initialisation, and never
// written again.
var denseTwiddle = func() (w [denseGrid / 2]complex128) {
	for k := range w {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / denseGrid)
		w[k] = complex(c, s)
	}
	return w
}()

// tableEvents is the expected number of detour events per call, K·Λ, from
// which a window that is not dense is worth a table at K ≤ exactMaxRanks
// ranks (above that every window is; see Tabled). Colouring
// costs about 22 ns per event (BenchmarkMaxDetourRank: 13.9 µs for the 645
// events of K = 1,024 at 30 ms on LinuxTuned), so a call at 256 events
// costs about 5.5 µs, where the table path costs 0.15 µs at any K. A table
// costs about 30 µs on a grid its profile has fitted and 0.2 ms with the
// fit (BenchmarkDenseTable), so at 256 events it has paid for itself after
// 6 to 40 calls at its window; a full Figure 4 draws about 200 calls from
// each of its tables. Below 256 events the saving per call shrinks with
// the events, and windows met by few calls stop paying for their table.
const tableEvents = 256

// resolveSteps and resolveMiss set when a table's grid resolves a maximum
// over K ranks: the probability that the maximum is positive but at most
// resolveSteps grid steps is at most resolveMiss. Below a few steps the
// maximum is a detour or two the grid has moved by up to a step each: a
// 4 µs tick or a 25 µs kworker on a 16–33 µs grid. Two steps leave untuned
// Linux at 30 ms and K = 256 failing a two-sample KS test against
// colouring at the 1% level; four steps pass every cell. A law moved on at
// most 1% of its mass moves the maximum's CDF by at most 0.01, below the
// 0.028 critical value of those tests. The atom at 0 is exact in every
// table and does not count.
const (
	resolveSteps = 4
	resolveMiss  = 0.01
)

// denseTable is the law of one rank's summed detour from a profile's core-1
// sources at one window. Between knots the survival function is linear:
// it falls from g0 = P(D > 0) at 0 to sv[0] at h/2, and from sv[i−1] at
// (i−½)h to sv[i] at (i+½)h. The grid point i carries the mass the grid
// discretisation of the detours (basePMF, tailPMF) puts at i·h, spread
// evenly over [(i−½)h, (i+½)h], so each grid point keeps its mean; the
// atom at 0, P(D = 0) = e^{−Λ₀}, is exact. sv is non-increasing and ends at
// 0. A table is never written after it is built.
type denseTable struct {
	window sim.Duration
	// h is the grid step in nanoseconds.
	h float64
	// g0 is P(D > 0) = 1 − e^{−Λ₀}, Λ₀ the rate of nonzero detours.
	g0 float64
	// rho is ρ at h (resolution) and lam0 is Λ₀: resolves reads them.
	rho, lam0 float64
	sv        []float32
	// guide[b], b ≤ guideBits, is the first knot whose survival is at most
	// 2^−b, and guide[guideBits+1] the last knot; built with sv and shared
	// by every copy of the table.
	guide []uint16
}

// guideBits is the last binary exponent, 2^−guideBits, at which a table's
// guide marks a knot; a survival below it is searched for up to the last
// knot.
const guideBits = 64

// quantile returns the smallest detour whose survival is at most s, in
// nanoseconds: D's inverse CDF at 1 − s.
func (t *denseTable) quantile(s float64) float64 {
	if s >= t.g0 {
		return 0
	}
	// The first knot whose survival is at most s; the last knot is 0, so
	// one exists. With 2^−(b+1) ≤ s < 2^−b, b read off s's exponent bits,
	// it lies in [guide[b], guide[b+1]]: sv is non-increasing, every knot
	// before guide[b] is above 2^−b > s, and guide[b+1]'s is at most s.
	b := min(1022-int(math.Float64bits(s)>>52&0x7ff), guideBits)
	lo, hi := int(t.guide[b]), int(t.guide[b+1])
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); float64(t.sv[mid]) <= s {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	x0, g := 0.0, t.g0
	if lo > 0 {
		x0, g = (float64(lo)-0.5)*t.h, float64(t.sv[lo-1])
	}
	x1 := (float64(lo) + 0.5) * t.h
	return x0 + (g-s)/(g-float64(t.sv[lo]))*(x1-x0)
}

// max draws the maximum over `ranks` independent ranks' detours and a
// uniformly drawn rank, or -1 when the maximum is 0: the order statistic
// F_D⁻¹(U^{1/K}), looked up in survival space, where
// 1 − U^{1/K} = −expm1(ln U / K) keeps its precision at any K. Every call
// draws exactly two uniforms.
func (t *denseTable) max(rng *sim.RNG, ranks int) (sim.Duration, int) {
	u := rng.Float64()
	r := int(rng.Uint64n(uint64(ranks)))
	d := sim.Duration(t.quantile(-math.Expm1(math.Log(u)/float64(ranks))) + 0.5)
	if d <= 0 {
		return 0, -1
	}
	return d, r
}

// resolves reports whether the table's grid resolves the maximum over
// ranks ranks (resolved). MaxDetourRank asks once per (window, ranks) it
// caches (maxAt).
func (t *denseTable) resolves(ranks int) bool { return resolved(ranks, t.rho, t.lam0) }

// resolved reports whether P(0 < max ≤ resolveSteps·h) ≤ resolveMiss for
// the maximum over K ranks, by a bound: a rank whose detours include one
// above x = resolveSteps·h has D > x, and such detours arrive at rate ρ =
// Σ λ_s·P(X_s > x) (resolution), so P(max ≤ x) ≤ e^{−Kρ}, while
// P(max = 0) = e^{−KΛ₀} exactly.
func resolved(ranks int, rho, lam0 float64) bool {
	k := float64(ranks)
	return math.Exp(-k*rho)-math.Exp(-k*lam0) <= resolveMiss
}

// denseAt returns the profile's table for window, or nil.
func (p *Profile) denseAt(window sim.Duration) *denseTable {
	for i := range p.dense {
		if p.dense[i].window == window {
			return &p.dense[i]
		}
	}
	return nil
}

// Tabulate attaches a table of the per-rank detour law to the profile at
// each of the given windows where Tabled holds for ranks ranks;
// MaxDetourRank draws from them at those windows, at the rank counts they
// resolve. Windows may repeat. Tables come from the profile's table cache
// (Warm, Store), built there on first use, so a profile, its views and
// every profile of a store with the same core-1 sources build each window's
// table once. A profile whose core-1 sources include an uncapped Pareto
// tail gets no tables: a finite grid cannot hold it. Like Warm, Tabulate is
// called before the profile is viewed (CloneTables), and the views share
// the tables, which are never written again. A view may Tabulate windows
// of its own; Tabulate clears the profile's max-of-K entries (maxAt).
// Changing the profile's sources afterwards is not supported.
//
// Tables are attached in the order their windows first appear, and whether
// a window gets one, and which, depends only on the profile's core-1
// sources, the window and ranks. So over any prefix of the list, Tabulate
// attaches exactly the first tables it attaches over the whole list, and
// CloneTables keeps them. A node image prepared for T steps relies on this
// to serve runs of fewer steps (cluster.Image.Steps).
func (p *Profile) Tabulate(windows []sim.Duration, ranks int) {
	tabs := slices.Clip(p.dense) // never append into a parent's tables
	for i, w := range windows {
		if p.denseAt(w) == nil && !slices.Contains(windows[:i], w) && p.Tabled(w, ranks) {
			tabs = append(tabs, *p.tableAt(w))
		}
	}
	p.dense = tabs
	p.maxes = [2]maxEntry{}
}

// Tabled reports whether max-of-K calls over ranks ranks at window get a
// table: where colouring them would be costly and the table's grid resolves
// their maximum. Colouring is costly at a dense window (dense, λ_s ≥ 1 for
// a core-1 source) and above exactMaxRanks ranks, at any window, and up to
// exactMaxRanks ranks where a call draws at least tableEvents events,
// K·Λ ≥ tableEvents with Λ = Σ window/Period over the core-1 sources.
// Above 1,024 ranks even the lightweight kernels' windows draw tens of
// events per colouring call (about 100 for McKernel at 0.79 ms and
// K = 131,072), and a paper figure makes hundreds of calls per window, so
// a table pays for itself there at any K·Λ. The grid resolves the maximum
// when resolved holds at the step gridStep gives the window's span; a
// table whose build doubled that step resolves fewer rank counts, which
// MaxDetourRank checks for each (window, ranks) it meets. A profile with an
// uncapped Pareto tail gets no table.
func (p *Profile) Tabled(window sim.Duration, ranks int) bool {
	if window <= 0 || ranks <= 0 || !p.tabulable() {
		return false
	}
	if !p.Dense(window) && ranks <= exactMaxRanks && float64(ranks)*p.events(window) < tableEvents {
		return false
	}
	span, lam0 := p.denseSpan(window)
	h := 1.0
	if span > 0 && !math.IsInf(span, 0) {
		h = gridStep(span)
	}
	return resolved(ranks, p.resolution(window, h), lam0)
}

// Dense reports whether one of the profile's core-1 sources is dense at
// window: λ = window/Period ≥ 1.
func (p *Profile) Dense(window sim.Duration) bool {
	for i := range p.Sources {
		s := &p.Sources[i]
		if s.drawsOnAppCore() && window >= s.Period {
			return true
		}
	}
	return false
}

// events returns Λ, the rate of one rank's detour events at window: Σ
// window/Period over the core-1 sources.
func (p *Profile) events(window sim.Duration) float64 {
	var lam float64
	for i := range p.Sources {
		if s := &p.Sources[i]; s.drawsOnAppCore() {
			lam += float64(window) / float64(s.Period)
		}
	}
	return lam
}

// resolution returns ρ = Σ λ_s·P(X_s > resolveSteps·h) over the core-1
// sources at window, with exceeds' lower bound for each P(X_s > x), so that
// resolved's bound stays an upper bound.
func (p *Profile) resolution(window sim.Duration, h float64) float64 {
	x := resolveSteps * h
	var rho float64
	for i := range p.Sources {
		if s := &p.Sources[i]; s.drawsOnAppCore() {
			rho += float64(window) / float64(s.Period) * s.exceeds(x)
		}
	}
	return rho
}

// exceeds returns a lower bound on P(X > x), x > 0, for one detour X, base
// B plus, with probability q, a capped Pareto tail T: X is at least B and
// at least its tail, so P(X > x) ≥ 1 − P(B ≤ x)·(1 − q·P(T > x)). B's
// survival is the log-normal's (phiC) or the point mass's; T's is 1 below
// its scale, (scale/x)^α up to its cap and 0 from the cap on.
func (s *Source) exceeds(x float64) float64 {
	var b float64
	if s.baseLogNormal() {
		mu, sigma := s.lnParamsNs()
		b = phiC((math.Log(x) - mu) / sigma)
	} else if s.baseMean() > x {
		b = 1
	}
	var t float64
	if s.hasTail() {
		xm, c := float64(s.TailScale), float64(s.TailCap)
		switch {
		case x >= c:
		case x < xm:
			t = s.tailProb()
		default:
			t = s.tailProb() * math.Pow(xm/x, s.TailAlpha)
		}
	}
	return 1 - (1-b)*(1-t)
}

// tabulable reports whether every core-1 source's detour law fits a
// finite grid: any Pareto tail is capped, with a positive index.
func (p *Profile) tabulable() bool {
	for i := range p.Sources {
		s := &p.Sources[i]
		if s.drawsOnAppCore() && s.hasTail() && (s.TailCap <= 0 || !(s.TailAlpha > 0)) {
			return false
		}
	}
	return true
}

// drawsOnAppCore reports whether the source draws any occurrence on
// application core 1.
func (s *Source) drawsOnAppCore() bool {
	return s.appliesTo(1) && s.Period > 0
}

// hasTail reports whether a detour can carry a nonzero Pareto tail.
func (s *Source) hasTail() bool {
	return s.TailProb > 0 && s.TailScale > 0
}

// tailProb is the probability that a detour carries its tail.
func (s *Source) tailProb() float64 {
	if !s.hasTail() {
		return 0
	}
	return min(s.TailProb, 1)
}

// baseMean is the mean of a detour's base length in nanoseconds: Mean, or 0
// when Mean is not positive (the base of a Mean-0 source is 0).
func (s *Source) baseMean() float64 {
	return max(float64(s.Mean), 0)
}

// baseLogNormal reports whether the base length is log-normal (otherwise it
// is the point mass baseMean).
func (s *Source) baseLogNormal() bool {
	return s.CV > 0 && s.Mean > 0
}

// lnParamsNs returns the log-normal base's (mu, sigma) in log-nanoseconds:
// lnParams' in log-seconds, shifted.
func (s *Source) lnParamsNs() (mu, sigma float64) {
	mu, sigma = s.lnParams()
	return mu + math.Log(float64(sim.Second)), sigma
}

// detourMoments returns E[X] and E[X²] of one detour X in nanoseconds: the
// base length plus, with probability tailProb, the capped Pareto tail,
// independent of it. The tail's moments assume a capped tail.
func (s *Source) detourMoments() (m1, m2 float64) {
	b1 := s.baseMean()
	b2 := b1 * b1
	if s.baseLogNormal() {
		b2 *= 1 + s.CV*s.CV
	}
	p := s.tailProb()
	if p == 0 {
		return b1, b2
	}
	xm, c, a := float64(s.TailScale), float64(s.TailCap), s.TailAlpha
	t1 := tailSurvInt(0, c, xm, a, c)
	// E[T²] = ∫₀^cap 2t·S(t) dt.
	var t2 float64
	if c <= xm {
		t2 = c * c
	} else {
		t2 = xm * xm
		if a == 2 {
			t2 += 2 * xm * xm * math.Log(c/xm)
		} else {
			t2 += 2 * xm * xm * (math.Pow(c/xm, 2-a) - 1) / (2 - a)
		}
	}
	return b1 + p*t1, b2 + 2*b1*p*t1 + p*t2
}

// upper returns a detour length that one detour exceeds with probability
// at most delta: the base's quantile plus the tail's cap.
func (s *Source) upper(delta float64) float64 {
	x := s.baseMean()
	if s.baseLogNormal() {
		mu, sigma := s.lnParamsNs()
		x = math.Exp(mu - sigma*normInv(max(delta, 1e-300)))
	}
	if s.hasTail() {
		x += float64(s.TailCap)
	}
	return x
}

// denseSpan returns the span a table's grid must cover at window, the
// mean plus ten standard deviations plus the largest single detour the tail
// bound allows, and Λ₀, the rate of nonzero detours: P(D > 0) = 1 − e^{−Λ₀}.
func (p *Profile) denseSpan(window sim.Duration) (span, lam0 float64) {
	var mean, variance, worst float64
	nsrc := 0
	for i := range p.Sources {
		if p.Sources[i].drawsOnAppCore() {
			nsrc++
		}
	}
	for i := range p.Sources {
		s := &p.Sources[i]
		if !s.drawsOnAppCore() {
			continue
		}
		lam := float64(window) / float64(s.Period)
		m1, m2 := s.detourMoments()
		mean += lam * m1
		variance += lam * m2
		if s.baseMean() > 0 || s.hasTail() {
			// A detour is 0 only when its base is and it carries no
			// tail.
			p0 := 0.0
			if s.baseMean() == 0 {
				p0 = 1 - s.tailProb()
			}
			lam0 += lam * (1 - p0)
		}
		worst = max(worst, s.upper(denseTail/(lam*float64(nsrc))))
	}
	return mean + 10*math.Sqrt(variance) + worst, lam0
}

// build fills t from the profile's core-1 sources at t.window, on the
// profile's grid at the step gridStep gives for the window's span
// (denseSpan). When more than denseTail of the mass still reaches the
// grid's top eighth, the step doubles (at most three times). ρ is taken at
// the step the table ends on. The survival is kept up to its first 0, in an
// array of that length, and indexed by its guide.
func (t *denseTable) build(p *Profile) {
	span, lam0 := p.denseSpan(t.window)
	t.g0, t.lam0 = -math.Expm1(-lam0), lam0
	var sv [denseGrid]float64
	if !(span > 0) || math.IsInf(span, 0) {
		// Every detour is 0 (no source has a positive base or tail): the
		// table is the atom at 0.
		t.h, t.g0, t.lam0 = 1, 0, 0
	} else {
		t.h = gridStep(span)
		for try := 0; ; try++ {
			p.gridAt(t.h).compound(t.window, &sv)
			if sv[denseGrid*7/8] <= denseTail || try == 3 {
				break
			}
			t.h *= 2
		}
		t.rho = p.resolution(t.window, t.h)
	}
	n := 1
	for i := range sv {
		v := float32(sv[i])
		for float64(v) > t.g0 {
			// Rounding to float32 must not lift the survival above g0.
			v = math.Nextafter32(v, 0)
		}
		sv[i] = float64(v)
		if v > 0 {
			n = i + 2
		}
	}
	t.sv = make([]float32, min(n, denseGrid))
	for i := range len(t.sv) - 1 {
		t.sv[i] = float32(sv[i])
	}
	t.guide = make([]uint16, guideBits+2)
	i := 0
	for b := range guideBits + 1 {
		for float64(t.sv[i]) > math.Ldexp(1, -b) {
			i++
		}
		t.guide[b] = uint16(i)
	}
	t.guide[guideBits+1] = uint16(len(t.sv) - 1)
}

// grid is a grid step h and a profile's Ψ on it. Every rate λ_s =
// window/Period_s scales with the window, so the exponent of D's
// characteristic function, Σ λ_s(φ_s − 1), is window·(Ψ − Ψ₀) with
// Ψ = Σ_s φ_s/Period_s, φ_s the DFT of one detour's grid pmf. Ψ depends
// only on the profile's core-1 sources and h, so every table on the same
// step shares it (tableCache), and a table after the first costs one
// exponentiation and one inverse transform. Ψ is the DFT of a real
// sequence, so it is Hermitian, and only its first half, k ≤ denseGrid/2,
// is kept: compound mirrors the rest. A grid is written once, by fit.
type grid struct {
	h    float64
	once sync.Once
	psi  [denseGrid/2 + 1]complex128
}

// gridStep returns the grid step for a span: the smallest power of two h
// with h·denseGrid ≥ span, so that span ≤ h·denseGrid < 2·span. Windows
// whose spans lie in one octave get one step, and so share one Ψ.
func gridStep(span float64) float64 {
	frac, exp := math.Frexp(span / denseGrid)
	if frac == 0.5 {
		exp--
	}
	return math.Ldexp(1, exp)
}

// fit computes Ψ at the grid's step h.
func (g *grid) fit(p *Profile) {
	// The DFT is linear: the sources without a tail add their rate-
	// weighted pmfs in the time domain and share one transform.
	var pmf [denseGrid]float64
	for i := range p.Sources {
		if s := &p.Sources[i]; s.drawsOnAppCore() && !s.hasTail() {
			s.basePMF(&pmf, g.h, 1/float64(s.Period))
		}
	}
	var z [denseGrid]complex128
	for j := range z {
		z[j] = complex(pmf[j], 0)
	}
	fft(&z, false)
	copy(g.psi[:], z[:])
	for i := range p.Sources {
		s := &p.Sources[i]
		if !s.drawsOnAppCore() || !s.hasTail() {
			continue
		}
		// A detour is base + tail with probability q: its DFT is
		// φ_B·((1 − q) + q·φ_T). Transform both pmfs at once, base in
		// the real part and tail in the imaginary part, and separate
		// them by conjugate symmetry.
		pmf = [denseGrid]float64{}
		s.basePMF(&pmf, g.h, 1)
		for j := range z {
			z[j] = complex(pmf[j], 0)
		}
		pmf = [denseGrid]float64{}
		s.tailPMF(&pmf, g.h)
		for j := range z {
			z[j] += complex(0, pmf[j])
		}
		fft(&z, false)
		rate := complex(1/float64(s.Period), 0)
		q := complex(s.tailProb(), 0)
		for k := range g.psi {
			zk, zc := z[k], cmplx.Conj(z[(denseGrid-k)%denseGrid])
			base, tail := (zk+zc)*0.5, (zk-zc)*complex(0, -0.5)
			g.psi[k] += rate * base * (1 - q + q*tail)
		}
	}
}

// compound writes into sv the survival of the compound-Poisson detour sum
// over window on the grid: sv[i] = P(D_h > i·h), D_h the sum of the
// sources' grid-discretised detours. Subtracting Ψ₀ makes the total mass
// exactly 1; the Hermitian half is exponentiated and mirrored.
func (g *grid) compound(window sim.Duration, sv *[denseGrid]float64) {
	var z [denseGrid]complex128
	w := complex(float64(window), 0)
	for k := range g.psi {
		z[k] = cmplx.Exp(w * (g.psi[k] - g.psi[0]))
	}
	for k := denseGrid/2 + 1; k < denseGrid; k++ {
		z[k] = cmplx.Conj(z[denseGrid-k])
	}
	fft(&z, true)
	var tail float64
	for i := denseGrid - 1; i >= 0; i-- {
		sv[i] = tail
		if m := real(z[i]) / denseGrid; m >= denseFloor {
			tail += m
		}
	}
}

// basePMF adds w times the grid pmf of the source's base length to pmf.
// A log-normal base is split between neighbouring grid points so that its
// mean is kept up to the cell where its survival falls below denseRound:
// first-order moment matching gives each value's mass to its two
// neighbouring points in proportion to its nearness, which puts
// (I_{i−1} − I_i)/h at point i, I_i the integral of P(X > t) over the cell
// [i·h, (i+1)·h]. Beyond that cell, where the density is thin and smooth,
// each value is rounded to the nearest grid point, which costs one normal
// tail probability per cell instead of two and moves the mean by less
// than denseRound·h. The mass below exp(mu − denseZ·sigma)
// and above exp(mu + denseZ·sigma), under 1e-17 each, joins the first and
// the last cell of that range.
func (s *Source) basePMF(pmf *[denseGrid]float64, h, w float64) {
	if !s.baseLogNormal() {
		pointPMF(pmf, h, w, s.baseMean())
		return
	}
	mu, sigma := s.lnParamsNs()
	m := float64(s.Mean)
	// excess returns E[(X − t)⁺] = m·Φc(d₂ − σ) − t·Φc(d₂) and P(X > t) =
	// Φc(d₂), d₂ = (ln t − mu)/σ.
	excess := func(t float64) (e, surv float64) {
		if t <= 0 {
			return m, 1
		}
		d2 := (math.Log(t) - mu) / sigma
		surv = phiC(d2)
		return m*phiC(d2-sigma) - t*surv, surv
	}
	a := min(int(math.Exp(mu-denseZ*sigma)/h), denseGrid-2)
	b := min(max(int(math.Exp(mu+denseZ*sigma)/h)+1, a+1), denseGrid-1)
	// I_i = ∫ over cell [i·h, (i+1)·h] of P(X > t) dt = e(i·h) − e((i+1)·h).
	e0, _ := excess(float64(a) * h)
	e, surv := excess(float64(a+1) * h)
	prev := max(e0-e, 0)
	pmf[a] += w * (1 - prev/h)
	i := a + 1
	for ; i < b && surv > denseRound; i++ {
		var next float64
		next, surv = excess(float64(i+1) * h)
		cur := max(e-next, 0)
		pmf[i] += w * (prev - cur) / h
		prev, e = cur, next
	}
	// The mass left, prev/h, is the mean survival over the last split
	// cell, at least the survival at any later cell edge.
	left := prev / h
	for ; i < b; i++ {
		cur := phiC((math.Log((float64(i)+0.5)*h) - mu) / sigma)
		pmf[i] += w * (left - cur)
		left = cur
	}
	pmf[b] += w * left
}

// denseRound is the survival below which basePMF rounds a log-normal base
// instead of splitting it.
const denseRound = 1e-4

// tailPMF writes the grid pmf of the capped Pareto tail into pmf, split
// between neighbouring grid points so that its mean is kept (as basePMF
// splits a log-normal base). Its mass beyond the grid joins the last
// point.
func (s *Source) tailPMF(pmf *[denseGrid]float64, h float64) {
	xm, a, c := float64(s.TailScale), s.TailAlpha, float64(s.TailCap)
	if c <= xm {
		pointPMF(pmf, h, 1, c)
		return
	}
	lo := min(int(xm/h), denseGrid-2)
	hi := min(max(int(math.Ceil(c/h))+1, lo+1), denseGrid-1)
	prev := tailSurvInt(float64(lo)*h, float64(lo+1)*h, xm, a, c)
	pmf[lo] += 1 - prev/h
	for i := lo + 1; i < hi; i++ {
		cur := tailSurvInt(float64(i)*h, float64(i+1)*h, xm, a, c)
		pmf[i] += (prev - cur) / h
		prev = cur
	}
	pmf[hi] += prev / h
}

// pointPMF adds w times the grid pmf of the point mass at x: its mass split
// between the two neighbouring grid points so that the mean stays x.
func pointPMF(pmf *[denseGrid]float64, h, w, x float64) {
	f := x / h
	i := int(f)
	if i >= denseGrid-1 {
		pmf[denseGrid-1] += w
		return
	}
	frac := f - float64(i)
	pmf[i] += w * (1 - frac)
	pmf[i+1] += w * frac
}

// phiC is the complement of the standard normal CDF.
func phiC(z float64) float64 { return 0.5 * math.Erfc(z/math.Sqrt2) }

// tailSurvInt returns ∫_x^y P(T > t) dt for the tail T = min(P, c), P
// Pareto with scale xm and index a > 0: P(T > t) is 1 below xm, (xm/t)^a
// from xm to c, and 0 from c on.
func tailSurvInt(x, y, xm, a, c float64) float64 {
	y = min(y, c)
	if y <= x {
		return 0
	}
	var v float64
	if x < xm {
		v = min(y, xm) - x
		x = xm
	}
	if y > x {
		if a == 1 {
			v += xm * math.Log(y/x)
		} else {
			// xm/(1−a)·((y/xm)^{1−a} − (x/xm)^{1−a}), in a form that
			// keeps its precision when y is close to x.
			v += xm * math.Pow(x/xm, 1-a) * math.Expm1((1-a)*math.Log1p((y-x)/x)) / (1 - a)
		}
	}
	return v
}

// fft transforms a in place: the forward DFT with kernel e^{−2πijk/N}, or
// the inverse without its 1/N factor. Iterative radix-2, decimation in
// time.
func fft(a *[denseGrid]complex128, inverse bool) {
	for i, j := 1, 0; i < denseGrid; i++ {
		bit := denseGrid >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for i := 0; i < denseGrid; i += 2 {
		u, v := a[i], a[i+1]
		a[i], a[i+1] = u+v, u-v
	}
	for half := 2; half < denseGrid; half <<= 1 {
		stride := denseGrid / (2 * half)
		for k := 0; k < half; k++ {
			wr, wi := real(denseTwiddle[k*stride]), imag(denseTwiddle[k*stride])
			if inverse {
				wi = -wi
			}
			for i := k; i+half < denseGrid; i += 2 * half {
				x := a[i+half]
				v := complex(real(x)*wr-imag(x)*wi, real(x)*wi+imag(x)*wr)
				a[i+half] = a[i] - v
				a[i] += v
			}
		}
	}
}
