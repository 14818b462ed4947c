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
	"slices"
	"strings"

	"mklite/internal/sim"
	"mklite/internal/trace"
)

// Source is one recurring interference source on a set of cores: Poisson
// occurrences, each a log-normal detour plus an optional capped Pareto tail.
// A Source fills its sampling caches (below) on first use, so one instance is
// drawn from by one goroutine at a time; copies share only the quantile
// table, which is immutable once built.
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
	// never concatenates strings. Lazily filled under the profile's
	// per-run single-goroutine contract (profiles travel with the run's
	// RNG, never shared across par closures).
	ctr string

	// lnMu/lnSigma cache the log-normal parameters derived from Mean and
	// CV (two math.Log and a math.Sqrt per detour otherwise — a
	// measurable share of the whole harness, since every source draws
	// every timestep). Same lazy single-goroutine contract as ctr.
	lnOK          bool
	lnMu, lnSigma float64

	// lnTab holds the log-normal quantile function at lnTableSize
	// equally spaced probabilities spanning [lnTableLo, lnTableHi); see
	// sampleLogNormal. Built on the first draw from (lnMu, lnSigma) under
	// the same single-goroutine contract. The backing array is never
	// written after the build, so a profile copied from this one (WithSource,
	// WithoutTicks) may share it.
	lnTab []float64

	// lamWindow/lamVal/lamExp cache the Poisson occurrence-count
	// parameters for the last window seen. The detour window is constant
	// across the timesteps of a run whenever the per-step base time is
	// (the common case), so the cache turns a math.Exp per source per
	// step into one per run.
	lamWindow sim.Duration
	lamVal    float64
	lamExp    float64 // exp(-lamVal); consulted only when lamVal <= sim.PoissonKnuthCutoff
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

// lambda returns the Poisson mean window/period of the occurrence count and
// exp of its negation (0 above sim.PoissonKnuthCutoff, where PoissonExp
// ignores it), cached for the last window seen. The caller has checked
// Period > 0 and window > 0.
func (s *Source) lambda(window sim.Duration) (lam, expNegLam float64) {
	if window != s.lamWindow {
		s.lamWindow = window
		s.lamVal = float64(window) / float64(s.Period)
		if s.lamVal <= sim.PoissonKnuthCutoff {
			s.lamExp = math.Exp(-s.lamVal)
		} else {
			s.lamExp = 0
		}
	}
	return s.lamVal, s.lamExp
}

// sampleCount draws the number of occurrences in a window (Poisson with
// mean window/period).
func (s *Source) sampleCount(rng *sim.RNG, window sim.Duration) int {
	if s.Period <= 0 || window <= 0 {
		return 0
	}
	return rng.PoissonExp(s.lambda(window))
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

// SampleWindow returns the total detour the source inflicts on the given
// core during a window of the given length.
func (s *Source) SampleWindow(rng *sim.RNG, core int, window sim.Duration) sim.Duration {
	if !s.appliesTo(core) {
		return 0
	}
	n := s.sampleCount(rng, window)
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
// one kernel configuration.
type Profile struct {
	Name    string
	Sources []Source

	// dense holds the per-rank detour tables Tabulate attached, one per
	// tabled window; read-only once built and shared by clones.
	dense []denseTable
	// cache holds the Ψ grids and tables of the profile's law, shared by
	// clones and by the profiles of a Store; made by Warm, or by the first
	// table of a profile never warmed.
	cache *tableCache
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
	var total sim.Duration
	for i := range p.Sources {
		d := p.Sources[i].SampleWindow(rng, core, window)
		if counting && d > 0 {
			sink.Count(p.Sources[i].counterName(), int64(d))
		}
		total += d
	}
	return total
}

// Warm builds every source's log-normal quantile table that is not built
// yet, all in one allocation, and gives the profile its table cache if it
// has none (Store.Warm gives it a store's), so that the copies Clone makes
// afterwards share them instead of each building its own. Draws are
// unchanged: a table is a pure function of its source.
func (p *Profile) Warm() {
	p.tableCache()
	cold := func(s *Source) bool { return s.baseLogNormal() && s.lnTab == nil }
	n := 0
	for i := range p.Sources {
		if cold(&p.Sources[i]) {
			n++
		}
	}
	tabs := make([]float64, n*lnTableSize)
	for i := range p.Sources {
		if s := &p.Sources[i]; cold(s) {
			s.buildTable(tabs[:lnTableSize:lnTableSize])
			tabs = tabs[lnTableSize:]
		}
	}
}

// Clone returns a copy of the profile with a Sources slice of its own. One
// profile may be cloned from several goroutines at once and each clone
// drawn from by its own: a clone's caches are its own, apart from the
// quantile tables and the tables Tabulate attached, which are never
// written once built (see Warm and Tabulate), and the table cache, which
// clones that tabulate share under a lock (tableCache).
func (p *Profile) Clone() *Profile {
	return &Profile{Name: p.Name, Sources: slices.Clone(p.Sources), dense: p.dense, cache: p.cache}
}

// CloneTables is Clone keeping only the first n of the tables Tabulate
// attached, in their order: the tables Tabulate attaches over a prefix of
// the same window list.
func (p *Profile) CloneTables(n int) *Profile {
	c := p.Clone()
	c.dense = c.dense[:min(n, len(c.dense))]
	return c
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
