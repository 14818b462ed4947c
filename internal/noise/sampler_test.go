package noise

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mklite/internal/par"
	"mklite/internal/sim"
)

// This file keeps the retired log-normal sampler — a Marsaglia polar normal
// draw fed through math.Exp — as the reference the table-driven inverse-CDF
// sampler in noise.go is held to, the way calqueue_test.go keeps the retired
// event heap. The two consume different numbers of uniforms, so runs are not
// draw-for-draw identical; what must hold is equality in distribution, for
// single detours and for the max-of-K a collective absorbs.

// refLogNormal is the retired sampler: exp(mu + sigma·Z), Z from the polar
// method.
func refLogNormal(rng *sim.RNG, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// refDetour is Source.sampleDetour over the reference sampler.
func refDetour(rng *sim.RNG, s *Source) sim.Duration {
	d := s.Mean
	if s.CV > 0 && s.Mean > 0 {
		mu, sigma := s.lnParams()
		d = sim.DurationOf(refLogNormal(rng, mu, sigma))
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

// refMaxDetour is the max-of-K over a per-rank walk, as MaxDetourRank's
// exact branch ran before colouring, over the reference sampler, on
// application core 1.
func refMaxDetour(rng *sim.RNG, p *Profile, ranks int, window sim.Duration) sim.Duration {
	var worst sim.Duration
	for r := 0; r < ranks; r++ {
		var total sim.Duration
		for i := range p.Sources {
			s := &p.Sources[i]
			if !s.appliesTo(1) {
				continue
			}
			var r rate
			for n := s.sampleCount(rng, window, &r); n > 0; n-- {
				total += refDetour(rng, s)
			}
		}
		worst = max(worst, total)
	}
	return worst
}

// facilityStorm is the co-tenancy daemon storm of fleet.DefaultInterference
// (2 ms period, 150 µs bursts, CV 0.5), which the fault layer adds to Linux
// application cores of every shared-node facility job.
func facilityStorm() Source { return Storm(2*sim.Millisecond, 150*sim.Microsecond, 0.5) }

// ksDistance is the two-sample Kolmogorov–Smirnov statistic: the largest
// gap between the empirical CDFs of a and b. Both are sorted in place.
func ksDistance(a, b []float64) float64 {
	slices.Sort(a)
	slices.Sort(b)
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		// Step past every copy of the smaller value in both samples, so
		// ties (exact zeros, capped tails) count once.
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// ksCritical99 is the two-sample KS critical value at the 1% level:
// c(α)·√((n+m)/(nm)) with c(0.01) = √(−ln(0.005)/2) ≈ 1.628.
func ksCritical99(n, m int) float64 {
	return math.Sqrt(-math.Log(0.005)/2) * math.Sqrt(float64(n+m)/float64(n*m))
}

func TestLogNormalPositive(t *testing.T) {
	s := Source{Period: sim.Millisecond, Mean: sim.Microsecond, CV: 1}
	mu, sigma := s.lnParams()
	rng, ref := sim.NewRNG(12), sim.NewRNG(12)
	for i := 0; i < 10000; i++ {
		if v := s.sampleLogNormal(rng); v <= 0 {
			t.Fatalf("log-normal sample non-positive: %v", v)
		}
		if v := refLogNormal(ref, mu, sigma); v <= 0 {
			t.Fatalf("reference log-normal sample non-positive: %v", v)
		}
	}
}

// The table sampler draws the same distribution as the reference: the
// two-sample KS distance over 4×10⁵ draws each stays below the 1% critical
// value, and the sample mean stays on the source's Mean, at every CV the
// profiles use and beyond.
func TestSampleLogNormalMatchesReference(t *testing.T) {
	const n = 400_000
	for i, cv := range []float64{0.2, 0.5, 1.0, 1.5} {
		s := Source{Period: sim.Millisecond, Mean: 100 * sim.Microsecond, CV: cv}
		mu, sigma := s.lnParams()
		rng, ref := sim.NewRNG(sim.StreamSeed(21, uint64(i))), sim.NewRNG(sim.StreamSeed(22, uint64(i)))
		got, want := make([]float64, n), make([]float64, n)
		mean := 0.0
		for k := range got {
			got[k] = s.sampleLogNormal(rng)
			want[k] = refLogNormal(ref, mu, sigma)
			mean += got[k] / n
		}
		d, crit := ksDistance(got, want), ksCritical99(n, n)
		t.Logf("CV %.1f: KS %.5f (critical %.5f), mean/Mean %.4f", cv, d, crit, mean/s.Mean.Seconds())
		if d >= crit {
			t.Errorf("CV %.1f: KS distance %.5f >= 99%% critical value %.5f", cv, d, crit)
		}
		// Relative standard error of the mean is CV/√n ≤ 0.24%.
		if rel := mean/s.Mean.Seconds() - 1; math.Abs(rel) > 0.01 {
			t.Errorf("CV %.1f: sample mean off Mean by %.2f%%", cv, 100*rel)
		}
	}
}

// Every knot of a built table equals lnQuantile at the knot's probability,
// bit for bit, for each (Mean, CV) the canonical profiles draw from and for
// the daemon storms the fault layer adds: the fault plan's default storm
// (20 ms bursts, CV 0.5) and the facility's co-tenancy storm (150 µs).
func TestTableKnotsMatchQuantile(t *testing.T) {
	sources := []Source{
		Storm(250*sim.Millisecond, 20*sim.Millisecond, 0.5),
		Storm(2*sim.Millisecond, 150*sim.Microsecond, 0.5),
	}
	for _, p := range []*Profile{LinuxTuned(), LinuxUntuned(), McKernelProfile(), MOSProfile()} {
		sources = append(sources, p.Sources...)
	}
	for _, src := range sources {
		if src.CV <= 0 || src.Mean <= 0 {
			continue
		}
		s := src
		s.buildTable(make([]float64, lnTableSize))
		for i, v := range s.lnTab {
			if want := s.lnQuantile(lnTableLo + float64(i)/lnTableScale); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s (Mean %v, CV %g): knot %d = %v, lnQuantile %v", s.Name, s.Mean, s.CV, i, v, want)
			}
		}
	}
}

// Views of a warmed profile (CloneTables) share its sources, filled caches
// and quantile tables, keep their Poisson rate caches to themselves, and
// draw exactly what a fresh, never-warmed copy draws, four at once from
// their own goroutines. A store hands every source with the same (Mean,
// CV) one quantile table, across profiles.
func TestWarmCloneDrawsAsFresh(t *testing.T) {
	warm := LinuxTuned()
	warm.Warm()
	for i := range warm.Sources {
		if s := &warm.Sources[i]; s.ctr == "" || !s.lnOK || s.baseLogNormal() != (s.lnTab != nil) {
			t.Errorf("%s: Warm left a cache cold", s.Name)
		}
	}
	views, _ := par.MapWidthErr(4, 4, func(int) (*Profile, error) {
		v := warm.CloneTables(0)
		fresh := LinuxTuned()
		a, b := sim.NewRNG(5), sim.NewRNG(5)
		for range 2000 {
			if x, y := v.DetourIn(a, 1, 50*sim.Millisecond), fresh.DetourIn(b, 1, 50*sim.Millisecond); x != y {
				t.Errorf("view drew %v, fresh profile %v", x, y)
				break
			}
		}
		return v, nil
	})
	for i, v := range views {
		if &v.Sources[0] != &warm.Sources[0] {
			t.Error("a view copies the sources")
		}
		if i > 0 && &v.rates[0] == &views[0].rates[0] {
			t.Error("views share their rate caches")
		}
		if v.rates[0].window != 50*sim.Millisecond {
			t.Error("a view's rate cache was not filled")
		}
	}
	if warm.rates != nil {
		t.Error("drawing from views filled the warmed profile's rate caches")
	}
	store := NewStore()
	tuned, untuned, mck, mos := LinuxTuned(), LinuxUntuned(), McKernelProfile(), MOSProfile()
	for _, p := range []*Profile{tuned, untuned, mck, mos} {
		store.Warm(p)
	}
	for i := range tuned.Sources {
		if got, want := untuned.Sources[i].lnTab, tuned.Sources[i].lnTab; &got[0] != &want[0] {
			t.Errorf("%s: the store built its quantile table twice", tuned.Sources[i].Name)
		}
	}
	if &mos.Sources[0].lnTab[0] != &mck.Sources[0].lnTab[0] {
		t.Error("the LWKs' housekeeping sources do not share a quantile table")
	}
}

// Outside the table's body every draw is the exact inverse CDF of its
// uniform, bit for bit.
func TestSampleLogNormalExactTails(t *testing.T) {
	s := Source{Period: sim.Millisecond, Mean: 200 * sim.Microsecond, CV: 1.0}
	mu, sigma := s.lnParams()
	rng, twin := sim.NewRNG(31), sim.NewRNG(31)
	tails := 0
	for i := 0; i < 100_000; i++ {
		u := twin.Float64()
		got := s.sampleLogNormal(rng)
		if u >= lnTableLo && u < lnTableHi {
			continue
		}
		tails++
		if want := math.Exp(mu + sigma*normInv(u)); got != want {
			t.Fatalf("u=%v: tail draw %v, want exactly %v", u, got, want)
		}
	}
	// 4% of uniforms fall in the tails.
	if tails < 3500 || tails > 4500 {
		t.Fatalf("%d tail draws of 100000, want ~4000", tails)
	}
	// The table's end knots are the exact quantiles too.
	if s.lnTab[0] != s.lnQuantile(lnTableLo) || s.lnTab[lnTableSize-1] != s.lnQuantile(lnTableLo+(lnTableSize-1)/lnTableScale) {
		t.Fatal("table end knots are not the exact quantiles")
	}
}

// The max over K ranks of each rank's summed detour — what a collective
// absorbs — has the same distribution under the table sampler as under the
// reference, on the facility's noisiest configuration (tuned Linux plus the
// co-tenancy storm) and without the storm. Every K here takes MaxDetourRank's
// exact path.
func TestMaxDetourMatchesReference(t *testing.T) {
	stormy := LinuxTuned().WithSource(facilityStorm())
	for _, tc := range []struct {
		ranks int
		n     int // draws per side
	}{{1, 40_000}, {64, 4_000}, {1024, 1_000}} {
		for _, window := range []sim.Duration{sim.Millisecond, 50 * sim.Millisecond} {
			for pi, p := range []*Profile{LinuxTuned(), stormy} {
				name := fmt.Sprintf("K=%d/window=%v/storm=%v", tc.ranks, window, pi == 1)
				seed := uint64(tc.ranks)<<8 | uint64(window/sim.Millisecond)<<1 | uint64(pi)
				rng, ref := sim.NewRNG(sim.StreamSeed(41, seed)), sim.NewRNG(sim.StreamSeed(42, seed))
				got, want := make([]float64, tc.n), make([]float64, tc.n)
				for k := range got {
					got[k] = float64(maxDetour(rng, p, tc.ranks, window))
					want[k] = float64(refMaxDetour(ref, p, tc.ranks, window))
				}
				d, crit := ksDistance(got, want), ksCritical99(tc.n, tc.n)
				t.Logf("%s: KS %.4f (critical %.4f)", name, d, crit)
				if d >= crit {
					t.Errorf("%s: KS distance %.4f >= 99%% critical value %.4f", name, d, crit)
				}
			}
		}
	}
}

// BenchmarkSampleDetour times one detour draw per source of LinuxTuned and
// of the facility storm, under the table sampler and the retired reference.
func BenchmarkSampleDetour(b *testing.B) {
	p := LinuxTuned().WithSource(facilityStorm())
	for i := range p.Sources {
		s := &p.Sources[i]
		b.Run(s.Name+"/table", func(b *testing.B) {
			rng := sim.NewRNG(1)
			for b.Loop() {
				s.sampleDetour(rng)
			}
		})
		b.Run(s.Name+"/reference", func(b *testing.B) {
			rng := sim.NewRNG(1)
			for b.Loop() {
				refDetour(rng, s)
			}
		})
	}
}

// BenchmarkMaxDetourRank times one max-of-K draw on LinuxTuned with and
// without the facility storm. /sampler colours (Poisson colouring: into
// per-rank sums at K 64 and 1,024, beside the retired per-rank walk as
// /reference, the same law from different draws; into sparseMax's table of
// the ranks hit at 131,072), drawing from the profile as built, without
// tables; /table times the table path on a view of the profile given a
// table at the cell's window, dense or not. /steps times one step of the
// cluster's step loop: a collective over 1,024 ranks, then a 27-rank halo,
// at 30 ms on a view of a warm LinuxTuned tabulated there for 1,024 ranks
// (the collective takes the table, the halo colours).
func BenchmarkMaxDetourRank(b *testing.B) {
	b.Run("steps", func(b *testing.B) {
		const window = 30 * sim.Millisecond
		p := LinuxTuned()
		p.Warm()
		p.Tabulate([]sim.Duration{window}, exactMaxRanks)
		if p.denseAt(window) == nil {
			b.Fatal("LinuxTuned has no table at 30 ms for 1,024 ranks")
		}
		v := p.CloneTables(1)
		rng := sim.NewRNG(1)
		for b.Loop() {
			MaxDetourRank(rng, v, exactMaxRanks, window)
			MaxDetourRank(rng, v, 27, window)
		}
	})
	for _, storm := range []bool{false, true} {
		p := LinuxTuned()
		if storm {
			p = p.WithSource(facilityStorm())
		}
		for _, window := range []sim.Duration{sim.Millisecond, 30 * sim.Millisecond} {
			tabled := p.CloneTables(0)
			tabled.dense = []denseTable{*newTable(p, window)}
			for _, k := range []int{64, 1024, 131072} {
				cell := fmt.Sprintf("storm=%v/window=%v/K=%d", storm, window, k)
				b.Run(cell+"/sampler", func(b *testing.B) {
					rng := sim.NewRNG(1)
					for b.Loop() {
						MaxDetourRank(rng, p, k, window)
					}
				})
				b.Run(cell+"/table", func(b *testing.B) {
					rng := sim.NewRNG(1)
					for b.Loop() {
						MaxDetourRank(rng, tabled, k, window)
					}
				})
				if k > exactMaxRanks {
					continue
				}
				b.Run(cell+"/reference", func(b *testing.B) {
					rng := sim.NewRNG(1)
					for b.Loop() {
						refLoopMax(rng, p, k, window)
					}
				})
			}
		}
	}
}
