// Package noise models operating-system interference ("OS jitter"): the
// timer ticks, kernel worker threads and daemons that steal cycles from
// application cores. Strong partitioning of cores between Linux and the LWK
// is, per the paper, "a key property for preventing OS jitter from Linux to
// be propagated to the LWK"; this package supplies the per-kernel noise
// profiles and the FWQ/FTQ microbenchmarks that measure them.
//
// Noise matters at scale because bulk-synchronous applications absorb the
// *maximum* detour over all ranks in every collective round. A rare
// millisecond-scale daemon that is invisible on one node is hit almost
// surely somewhere among 131,072 ranks — the mechanism behind the paper's
// MiniFE and Lulesh Linux cliffs.
package noise

import (
	"math"
	"strings"

	"mklite/internal/sim"
	"mklite/internal/trace"
)

// Source is one recurring interference source on a set of cores: Poisson
// occurrences, each a log-normal detour plus an optional capped Pareto tail.
// A Source fills its sampling caches (below) on first use unless Warm filled
// them, so one instance that was never warmed is drawn from by one goroutine
// at a time; a warm one is read-only and any number of profile views
// (CloneTables) draw from it at once.
type Source struct {
	Name string
	// Period is the mean interval between occurrences.
	Period sim.Duration
	// Mean is the mean detour duration per occurrence.
	Mean sim.Duration
	// CV is the coefficient of variation of the detour duration
	// (log-normal model).
	CV float64
	// TailProb is the per-occurrence probability of a heavy-tail event
	// (e.g. a monitoring daemon waking up and doing real work).
	TailProb float64
	// TailScale and TailAlpha parameterise the Pareto tail duration.
	TailScale sim.Duration
	TailAlpha float64
	// TailCap bounds a single tail detour (a daemon runs for a bounded
	// time); 0 means uncapped.
	TailCap sim.Duration
	// CoreFilter restricts the source to specific cores; nil means all
	// cores. Core 0 on the paper's systems carries extra services —
	// "this is often due to CPU 0 running services and introducing
	// noise".
	CoreFilter func(core int) bool

	// ctr caches the per-source counter name so the hot sampling loop
	// never concatenates strings. Filled by Warm, or lazily on first use.
	ctr string

	// lnMu/lnSigma cache the log-normal parameters derived from Mean and
	// CV (two math.Log and a math.Sqrt per detour otherwise — a
	// measurable share of the whole harness, since every source draws
	// every timestep). Filled by Warm, or lazily like ctr.
	lnOK          bool
	lnMu, lnSigma float64

	// lnTab holds the log-normal quantile function at lnTableSize
	// equally spaced probabilities spanning [lnTableLo, lnTableHi); see
	// sampleLogNormal. Built by Warm, or on the first draw, from (lnMu,
	// lnSigma). The backing array is never written after the build, so a
	// profile copied from this one (WithSource, WithoutTicks) may share
	// it, and so may every source of a Store with the same Mean and CV.
	lnTab []float64
}

// lnParams returns the (mu, sigma) of the log-normal detour model, cached.
func (s *Source) lnParams() (mu, sigma float64) {
	if !s.lnOK {
		sigma2 := math.Log(1 + s.CV*s.CV)
		s.lnMu = math.Log(s.Mean.Seconds()) - sigma2/2
		s.lnSigma = math.Sqrt(sigma2)
		s.lnOK = true
	}
	return s.lnMu, s.lnSigma
}

// The log-normal detour sampler's table covers the body of the distribution,
// probabilities [lnTableLo, lnTableHi), with lnTableSize knots: 256 intervals
// of width 0.00375 in probability. The quantile function is smooth there, so
// linear interpolation between knots shifts the CDF by at most ~1e-4 (1.05e-4
// at CV 1.5) and the mean by at most 0.013% — far below what 4×10⁵ draws can
// resolve (docs/PERF.md). The 4% of draws outside the body take the exact
// inverse, so the heavy upper tail that max-of-N collectives amplify is never
// interpolated.
const (
	lnTableLo   = 0.02
	lnTableHi   = 0.98
	lnTableSize = 257
	// lnTableScale maps a probability offset from lnTableLo to a knot index.
	lnTableScale = (lnTableSize - 1) / (lnTableHi - lnTableLo)
)

// lnQuantile is the exact log-normal inverse CDF at probability u.
func (s *Source) lnQuantile(u float64) float64 {
	mu, sigma := s.lnParams()
	return math.Exp(mu + sigma*normInv(u))
}

// lnKnotZ holds the standard-normal quantile at each knot of the log-normal
// table, normInv(lnTableLo + i/lnTableScale). It is filled once, at package
// initialisation, and never written again: every source's table shares it.
var lnKnotZ = func() (z [lnTableSize]float64) {
	for i := range z {
		z[i] = normInv(lnTableLo + float64(i)/lnTableScale)
	}
	return z
}()

// buildTable fills tab (lnTableSize long) and makes it lnTab. Knot i is
// lnQuantile at the knot's probability, computed from the shared
// standard-normal knot, so a build costs one math.Exp per knot and no
// normInv.
func (s *Source) buildTable(tab []float64) {
	mu, sigma := s.lnParams()
	for i, z := range lnKnotZ {
		tab[i] = math.Exp(mu + sigma*z)
	}
	s.lnTab = tab
}

// sampleLogNormal draws one log-normal detour length in seconds by inverse
// transform from a single uniform: table interpolation in the body, the
// exact inverse CDF in both tails. Detour draws are the noise layer's hottest
// operation, so 96% of them cost one uniform, a multiply and two table loads
// rather than a normal variate and an exponential.
func (s *Source) sampleLogNormal(rng *sim.RNG) float64 {
	u := rng.Float64()
	if u < lnTableLo || u >= lnTableHi {
		return s.lnQuantile(u)
	}
	if s.lnTab == nil {
		s.buildTable(make([]float64, lnTableSize))
	}
	x := (u - lnTableLo) * lnTableScale
	// Rounding can carry u just below lnTableHi onto the last knot.
	i := min(int(x), lnTableSize-2)
	f := x - float64(i)
	return s.lnTab[i] + f*(s.lnTab[i+1]-s.lnTab[i])
}

// counterName returns the cached "noise.src.<name>_ns" counter name.
func (s *Source) counterName() string {
	if s.ctr == "" {
		s.ctr = "noise.src." + s.Name + "_ns"
	}
	return s.ctr
}

// appliesTo reports whether the source fires on the given core.
func (s *Source) appliesTo(core int) bool {
	return s.CoreFilter == nil || s.CoreFilter(core)
}

// rate caches a source's Poisson occurrence-count parameters for the last
// window it drew at. The detour window is constant across the timesteps of
// a run whenever the per-step base time is (the common case), so the cache
// turns a math.Exp per source per step into one per run. It is per-run
// state: a profile keeps one per source (Profile.rates), and each view of a
// shared profile its own, so a view is drawn from by one goroutine at a
// time.
type rate struct {
	window sim.Duration
	lam    float64
	expNeg float64 // exp(-lam); consulted only when lam <= sim.PoissonKnuthCutoff
	// maxExp holds e^{−K·λ} of the count over K ranks for each of the
	// profile's two max-of-K entries (maxEntry), by entry index.
	maxExp [2]float64
}

// at returns the Poisson mean window/Period of s's occurrence count and exp
// of its negation (expNegBelowCutoff), cached for the last window seen. The
// caller has checked Period > 0 and window > 0.
func (r *rate) at(s *Source, window sim.Duration) (lam, expNegLam float64) {
	if window != r.window {
		r.window = window
		r.lam = float64(window) / float64(s.Period)
		r.expNeg = expNegBelowCutoff(r.lam)
	}
	return r.lam, r.expNeg
}

// expNegBelowCutoff returns e^{−lam} for a Poisson mean lam, or 0 above
// sim.PoissonKnuthCutoff, where PoissonExp does not read it.
func expNegBelowCutoff(lam float64) float64 {
	if lam <= sim.PoissonKnuthCutoff {
		return math.Exp(-lam)
	}
	return 0
}

// sampleCount draws the number of occurrences in a window (Poisson with
// mean window/period), with r caching the rate.
func (s *Source) sampleCount(rng *sim.RNG, window sim.Duration, r *rate) int {
	if s.Period <= 0 || window <= 0 {
		return 0
	}
	return rng.PoissonExp(r.at(s, window))
}

// sampleDetour draws one detour duration: the base length (log-normal with
// the source's Mean and CV, drawn by sampleLogNormal; exactly Mean when CV
// is 0) plus, with probability TailProb, a capped Pareto tail.
func (s *Source) sampleDetour(rng *sim.RNG) sim.Duration {
	d := s.Mean
	if s.baseLogNormal() {
		d = sim.DurationOf(s.sampleLogNormal(rng))
	}
	if s.TailProb > 0 && rng.Bool(s.TailProb) {
		tail := sim.DurationOf(rng.Pareto(s.TailScale.Seconds(), s.TailAlpha))
		if s.TailCap > 0 && tail > s.TailCap {
			tail = s.TailCap
		}
		d += tail
	}
	return d
}

// sampleWindow returns the total detour the source inflicts on the given
// core during a window of the given length; r caches the rate.
func (s *Source) sampleWindow(rng *sim.RNG, core int, window sim.Duration, r *rate) sim.Duration {
	if !s.appliesTo(core) {
		return 0
	}
	n := s.sampleCount(rng, window, r)
	var total sim.Duration
	for i := 0; i < n; i++ {
		total += s.sampleDetour(rng)
	}
	return total
}

// ExpectedRate returns the source's mean stolen-time fraction (not counting
// the tail component) on cores it applies to.
func (s *Source) ExpectedRate() float64 {
	if s.Period <= 0 {
		return 0
	}
	return float64(s.Mean) / float64(s.Period)
}

// Profile is a named set of noise sources — the interference signature of
// one kernel configuration. Drawing from a profile fills its per-run caches
// (rates, maxes), so a profile, or each view of it (CloneTables), is drawn
// from by one goroutine at a time.
type Profile struct {
	Name    string
	Sources []Source

	// dense holds the per-rank detour tables Tabulate attached, one per
	// tabled window; read-only once built and shared by views.
	dense []denseTable
	// cache holds the Ψ grids and tables of the profile's law, shared by
	// views and by the profiles of a Store; made by Warm, or by the first
	// table of a profile never warmed.
	cache *tableCache
	// rates holds each source's Poisson rate cache, made on the first
	// draw; the profile's own, never shared by a view.
	rates []rate
	// maxes holds MaxDetourRank's entries for the last two (window, ranks)
	// it drew at; older is the index of the one a miss overwrites. Like
	// rates, they are the profile's own, and Tabulate clears them.
	maxes [2]maxEntry
	older int
}

// DetourIn samples the total interference on one core during a window.
func (p *Profile) DetourIn(rng *sim.RNG, core int, window sim.Duration) sim.Duration {
	return p.DetourInTo(rng, core, window, nil)
}

// DetourInTo is DetourIn with per-source attribution into a trace sink: each
// source that fires contributes to "noise.src.<name>_ns". The sampling
// sequence is identical with and without a sink — the sink only observes —
// so attaching one cannot perturb the run.
func (p *Profile) DetourInTo(rng *sim.RNG, core int, window sim.Duration, sink *trace.Sink) sim.Duration {
	counting := sink.Counting()
	if len(p.rates) != len(p.Sources) {
		p.rates = make([]rate, len(p.Sources))
	}
	var total sim.Duration
	for i := range p.Sources {
		d := p.Sources[i].sampleWindow(rng, core, window, &p.rates[i])
		if counting && d > 0 {
			sink.Count(p.Sources[i].counterName(), int64(d))
		}
		total += d
	}
	return total
}

// Warm fills every source's sampling caches, its counter name, its
// log-normal parameters and, in one allocation for all of them, its
// quantile table, and gives the profile its table cache if it has none
// (Store.Warm gives it a store's). After Warm the sources are read-only, so
// the views CloneTables makes share them instead of each copying and
// building its own. Draws are unchanged: every cache is a pure function of
// its source.
func (p *Profile) Warm() { p.warm(nil) }

// warm is Warm with each quantile table taken from tabs by (Mean, CV) when
// tabs holds it, and recorded there when it is built; tabs may be nil.
func (p *Profile) warm(tabs map[lnKey][]float64) {
	p.tableCache()
	cold := func(s *Source) bool { return s.baseLogNormal() && s.lnTab == nil }
	n := 0
	for i := range p.Sources {
		s := &p.Sources[i]
		s.counterName()
		s.lnParams()
		if cold(s) {
			if t, ok := tabs[s.lnKey()]; ok {
				s.lnTab = t
			} else {
				n++
			}
		}
	}
	if n == 0 {
		return
	}
	buf := make([]float64, n*lnTableSize)
	for i := range p.Sources {
		if s := &p.Sources[i]; cold(s) {
			if t, ok := tabs[s.lnKey()]; ok {
				// An earlier source of this profile has the same law.
				s.lnTab = t
				continue
			}
			s.buildTable(buf[:lnTableSize:lnTableSize])
			buf = buf[lnTableSize:]
			if tabs != nil {
				tabs[s.lnKey()] = s.lnTab
			}
		}
	}
}

// lnKey is what of a source its quantile table depends on.
type lnKey struct {
	mean sim.Duration
	cv   float64
}

// lnKey returns the key of the source's quantile table.
func (s *Source) lnKey() lnKey { return lnKey{s.Mean, s.CV} }

// CloneTables returns a view of the profile that draws from its sources and
// from the first n of the tables Tabulate attached, in their order: the
// tables Tabulate attaches over a prefix of the same window list. The view
// shares everything but its Poisson rate caches and max-of-K entries, which
// are its own, so any number of views of a warm profile (Warm) draw at once,
// each from its own goroutine and each view from one goroutine at a time;
// views of a profile never warmed fill the shared sources' caches on first
// use and are drawn from one at a time. The tables are never written once
// built, and the table cache is shared under a lock (tableCache), so views
// may Tabulate windows of their own concurrently.
func (p *Profile) CloneTables(n int) *Profile {
	return &Profile{Name: p.Name, Sources: p.Sources, dense: p.dense[:min(n, len(p.dense))],
		cache: p.cache, rates: make([]rate, len(p.Sources))}
}

// ExpectedRate returns the summed mean stolen-time fraction for a core.
func (p *Profile) ExpectedRate(core int) float64 {
	rate := 0.0
	for i := range p.Sources {
		if p.Sources[i].appliesTo(core) {
			rate += p.Sources[i].ExpectedRate()
		}
	}
	return rate
}

// WithSource returns a copy of the profile with an extra source appended —
// used by the fault layer to add a daemon storm without mutating the
// kernel's shared canonical profile. The copy has no tables and no table
// cache: its sources differ.
func (p *Profile) WithSource(s Source) *Profile {
	out := &Profile{Name: p.Name, Sources: make([]Source, 0, len(p.Sources)+1)}
	out.Sources = append(out.Sources, p.Sources...)
	out.Sources = append(out.Sources, s)
	return out
}

// WithoutTicks returns a copy of the profile with the tick-class sources
// (names containing "tick") removed — the dyntick scheduling policy switches
// the timer tick off entirely while a single task runs on a core, so neither
// the residual nohz_full housekeeping tick nor a full periodic tick fires.
// Profiles without tick sources (the LWKs) come back unchanged in content.
// Like WithSource, the copy has no tables and no table cache.
func (p *Profile) WithoutTicks() *Profile {
	out := &Profile{Name: p.Name, Sources: make([]Source, 0, len(p.Sources))}
	for _, s := range p.Sources {
		if strings.Contains(s.Name, "tick") {
			continue
		}
		out.Sources = append(out.Sources, s)
	}
	return out
}

// Storm builds the daemon-storm interference source the fault layer injects
// on Linux application cores: a rogue daemon bursting for `burst` every
// `period` on average, with log-normal burst lengths. On the LWKs core
// partitioning keeps this source off application cores entirely; the storm
// reaches them only through inflated offload round trips.
func Storm(period, burst sim.Duration, cv float64) Source {
	return Source{
		Name:   "daemon-storm",
		Period: period,
		Mean:   burst,
		CV:     cv,
	}
}

// --------------------------------------------------------------------------
// Canonical profiles

// LinuxTuned models the paper's production Linux environment: XPPSL with
// nohz_full on application cores. The periodic tick is suppressed but not
// gone (residual 1 Hz housekeeping), kworkers still run, and rare daemon
// activity has a millisecond-scale tail. Core 0 carries system services.
func LinuxTuned() *Profile {
	return &Profile{
		Name: "linux-tuned",
		Sources: []Source{
			{
				Name:   "residual-tick",
				Period: 1 * sim.Second / 10, // 10 Hz residual housekeeping
				Mean:   4 * sim.Microsecond,
				CV:     0.3,
			},
			{
				Name:   "kworker",
				Period: 100 * sim.Millisecond,
				Mean:   25 * sim.Microsecond,
				CV:     0.8,
			},
			{
				Name:      "daemon",
				Period:    1 * sim.Second,
				Mean:      120 * sim.Microsecond,
				CV:        1.0,
				TailProb:  0.05,
				TailScale: 800 * sim.Microsecond,
				TailAlpha: 1.6,
				TailCap:   5 * sim.Millisecond,
			},
			{
				// IRQ steering, RPC daemons and housekeeping all
				// pin to CPU 0; a rank scheduled there loses a
				// few percent — why everyone reserves it.
				Name:       "core0-services",
				Period:     5 * sim.Millisecond,
				Mean:       200 * sim.Microsecond,
				CV:         1.0,
				CoreFilter: func(core int) bool { return core == 0 },
			},
		},
	}
}

// LinuxUntuned models a stock distribution kernel without nohz_full: a full
// 250 Hz tick on every core plus everything in the tuned profile. Used by
// the noise ablation.
func LinuxUntuned() *Profile {
	p := LinuxTuned()
	p.Name = "linux-untuned"
	p.Sources = append(p.Sources, Source{
		Name:   "timer-tick",
		Period: 4 * sim.Millisecond, // 250 Hz
		Mean:   3 * sim.Microsecond,
		CV:     0.2,
	})
	return p
}

// LWK returns the lightweight-kernel profile: no timer tick (cooperative,
// non-preemptive scheduling), no daemons, only a vanishing residual from
// rare inter-kernel housekeeping. McKernel's stricter isolation ("the Linux
// kernel cannot interact with the McKernel scheduler") yields a marginally
// cleaner profile than mOS, where stray Linux tasks must be actively chased
// off LWK cores.
func LWK(residual sim.Duration) *Profile {
	return &Profile{
		Name: "lwk",
		Sources: []Source{
			{
				Name:   "ikc-housekeeping",
				Period: 1 * sim.Second,
				Mean:   residual,
				CV:     0.5,
			},
		},
	}
}

// McKernelProfile is the default McKernel noise signature.
func McKernelProfile() *Profile {
	p := LWK(500 * sim.Nanosecond)
	p.Name = "mckernel"
	return p
}

// MOSProfile is the default mOS noise signature: slightly above McKernel
// because of the tighter Linux integration (stray kernel tasks occasionally
// land on LWK cores before being evicted).
func MOSProfile() *Profile {
	p := LWK(500 * sim.Nanosecond)
	p.Name = "mos"
	p.Sources = append(p.Sources, Source{
		Name:   "stray-linux-task",
		Period: 5 * sim.Second,
		Mean:   3 * sim.Microsecond,
		CV:     1.0,
	})
	return p
}
