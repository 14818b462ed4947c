package noise

import (
	"fmt"
	"math"
	"testing"

	"mklite/internal/sim"
	"mklite/internal/stats"
)

func TestNormInvRoundTrip(t *testing.T) {
	// normInv must invert the empirical normal CDF: check known
	// quantiles.
	cases := []struct{ p, z float64 }{
		{0.5, 0}, {0.8413, 1.0}, {0.1587, -1.0}, {0.9772, 2.0}, {0.99865, 3.0},
	}
	for _, c := range cases {
		if got := normInv(c.p); math.Abs(got-c.z) > 0.01 {
			t.Fatalf("normInv(%v) = %v, want %v", c.p, got, c.z)
		}
	}
	if !math.IsInf(normInv(0), -1) || !math.IsInf(normInv(1), 1) {
		t.Fatal("edge values")
	}
}

func TestNormInvAgainstSampler(t *testing.T) {
	rng := sim.NewRNG(17)
	var xs []float64
	for i := 0; i < 100000; i++ {
		xs = append(xs, rng.NormFloat64())
	}
	for _, p := range []float64{10, 50, 90, 99} {
		want := normInv(p / 100)
		got := stats.Percentile(xs, p)
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("P%v: sampler %v vs normInv %v", p, got, want)
		}
	}
}

// maxDetour is MaxDetourRank's maximum alone.
func maxDetour(rng *sim.RNG, p *Profile, ranks int, window sim.Duration) sim.Duration {
	d, _ := MaxDetourRank(rng, p, ranks, window)
	return d
}

func TestMaxDetourZeroCases(t *testing.T) {
	p := LinuxTuned()
	rng := sim.NewRNG(1)
	if maxDetour(rng, p, 0, sim.Millisecond) != 0 {
		t.Fatal("zero ranks")
	}
	if maxDetour(rng, p, 64, 0) != 0 {
		t.Fatal("zero window")
	}
	quiet := &Profile{Name: "quiet"}
	if maxDetour(rng, quiet, 1<<20, sim.Second) != 0 {
		t.Fatal("quiet profile")
	}
}

func TestMaxDetourGrowsWithRanks(t *testing.T) {
	// The amplification law: median max detour must grow as rank count
	// grows — this is the paper's scaling cliff in miniature.
	p := LinuxTuned()
	rng := sim.NewRNG(2)
	window := 10 * sim.Millisecond
	med := func(ranks int) float64 {
		var xs []float64
		for i := 0; i < 200; i++ {
			xs = append(xs, float64(maxDetour(rng, p, ranks, window)))
		}
		return stats.Median(xs)
	}
	m64, m4k, m128k := med(64), med(4096), med(131072)
	if !(m64 < m4k && m4k < m128k) {
		t.Fatalf("max detour not growing: %v %v %v", m64, m4k, m128k)
	}
}

func TestMaxDetourLWKStaysTiny(t *testing.T) {
	p := McKernelProfile()
	rng := sim.NewRNG(3)
	window := 10 * sim.Millisecond
	var worst sim.Duration
	for i := 0; i < 100; i++ {
		if d := maxDetour(rng, p, 131072, window); d > worst {
			worst = d
		}
	}
	// Even over 128k LWK ranks the worst detour stays below 50us —
	// no tail to amplify.
	if worst > 50*sim.Microsecond {
		t.Fatalf("LWK max detour %v too large", worst)
	}
}

func TestMaxDetourApproxConsistentWithExact(t *testing.T) {
	// At the exact/approx boundary the two paths must agree in order of
	// magnitude (medians within 4x).
	p := LinuxTuned()
	window := 20 * sim.Millisecond
	medFor := func(ranks int, seed uint64) float64 {
		rng := sim.NewRNG(seed)
		var xs []float64
		for i := 0; i < 300; i++ {
			xs = append(xs, float64(maxDetour(rng, p, ranks, window)))
		}
		return stats.Median(xs)
	}
	exact := medFor(1024, 4)  // exact path
	approx := medFor(1025, 5) // approximation path
	ratio := approx / exact
	if ratio < 0.25 || ratio > 4 {
		t.Fatalf("exact %v vs approx %v: ratio %v", exact, approx, ratio)
	}
}

func TestMaxDetourCoreFilteredSourceExcluded(t *testing.T) {
	// A core-0-only source must not contribute to application-core
	// maxima on the approximation path.
	p := &Profile{Sources: []Source{{
		Name:       "core0-only",
		Period:     sim.Millisecond,
		Mean:       sim.Millisecond,
		CoreFilter: func(core int) bool { return core == 0 },
	}}}
	rng := sim.NewRNG(6)
	if d := maxDetour(rng, p, 1<<20, 10*sim.Millisecond); d != 0 {
		t.Fatalf("filtered source leaked %v", d)
	}
}

func TestMaxDetourAtLeastSingleRankDetour(t *testing.T) {
	// Statistically, max over many ranks dominates a single rank's
	// detour: compare means.
	p := LinuxTuned()
	rng := sim.NewRNG(7)
	window := 10 * sim.Millisecond
	var one, many float64
	const n = 300
	for i := 0; i < n; i++ {
		one += float64(p.DetourIn(rng, 1, window))
		many += float64(maxDetour(rng, p, 65536, window))
	}
	if many <= one {
		t.Fatalf("max over 64k ranks (%v) not above single rank (%v)", many/n, one/n)
	}
}

// refLoopMax is the retired per-rank walk of MaxDetourRank's exact branch,
// kept as the reference the colouring path is held to in distribution, the
// way sampler_test.go keeps the polar sampler: `ranks` successive
// single-rank draws on application core 1, the first rank with the largest
// total winning.
func refLoopMax(rng *sim.RNG, p *Profile, ranks int, window sim.Duration) (sim.Duration, int) {
	var max sim.Duration
	argmax := -1
	for r := 0; r < ranks; r++ {
		if d := p.DetourIn(rng, 1, window); d > max {
			max = d
			argmax = r
		}
	}
	return max, argmax
}

// refColourMax is the plain colouring exactMax is held to draw for draw: a
// fresh slice of per-rank sums, each source's Poisson(ranks·λ) events
// coloured onto uniform ranks in source order, then one scan for the first
// largest sum.
func refColourMax(rng *sim.RNG, p *Profile, ranks int, window sim.Duration) (sim.Duration, int) {
	sums := make([]sim.Duration, ranks)
	for i := range p.Sources {
		s := &p.Sources[i]
		if !s.appliesTo(1) || s.Period <= 0 {
			continue
		}
		events := rng.Poisson(float64(ranks) * (float64(window) / float64(s.Period)))
		for range events {
			r := rng.Uint64n(uint64(ranks))
			sums[r] += s.sampleDetour(rng)
		}
	}
	var max sim.Duration
	argmax := -1
	for r, d := range sums {
		if d > max {
			max, argmax = d, r
		}
	}
	return max, argmax
}

// exactOracleProfiles are the profiles the exact path is checked on against
// refColourMax: the four canonical kernels, tuned Linux under the facility
// storm and under a storm whose per-rank mean exceeds the Knuth cutoff at
// 30 ms, a profile with a zero-Period and a core-0-only source among live
// ones, a profile whose detours tie (fixed lengths, so equal sums pick the
// lowest rank), and one with ten sources.
func exactOracleProfiles() []*Profile {
	edge := &Profile{Name: "edge", Sources: []Source{
		{Name: "no-period", Mean: sim.Millisecond, CV: 0.5},
		{Name: "core0", Period: 100 * sim.Microsecond, Mean: 50 * sim.Microsecond, CV: 1,
			CoreFilter: func(core int) bool { return core == 0 }},
		{Name: "fixed", Period: 3 * sim.Millisecond, Mean: 7 * sim.Microsecond},
	}}
	ties := &Profile{Name: "ties", Sources: []Source{
		{Name: "tick", Period: 2 * sim.Millisecond, Mean: 5 * sim.Microsecond},
		{Name: "zero", Period: sim.Millisecond},
	}}
	wide := LinuxUntuned().WithSource(facilityStorm())
	for len(wide.Sources) < 10 {
		wide = wide.WithSource(Source{Name: "extra", Period: 20 * sim.Millisecond, Mean: 9 * sim.Microsecond, CV: 0.7})
	}
	return []*Profile{
		LinuxTuned(),
		LinuxUntuned(),
		McKernelProfile(),
		MOSProfile(),
		LinuxTuned().WithSource(facilityStorm()),
		LinuxTuned().WithSource(Storm(100*sim.Microsecond, 20*sim.Microsecond, 0.5)),
		edge,
		ties,
		wide,
	}
}

// checkColourMatchesRef runs MaxDetourRank and refColourMax from twin
// generators and fails unless they return the same maximum and argmax and
// leave their generators at the same state.
func checkColourMatchesRef(t *testing.T, seed uint64, p *Profile, ranks int, window sim.Duration) {
	t.Helper()
	rng, ref := sim.NewRNG(seed), sim.NewRNG(seed)
	d, r := MaxDetourRank(rng, p, ranks, window)
	wd, wr := refColourMax(ref, p, ranks, window)
	if d != wd || r != wr {
		t.Fatalf("%s K=%d window=%v seed=%d: got (%v, rank %d), reference colouring gives (%v, rank %d)",
			p.Name, ranks, window, seed, d, r, wd, wr)
	}
	if got, want := rng.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("%s K=%d window=%v seed=%d: next draw %#x, reference colouring leaves %#x",
			p.Name, ranks, window, seed, got, want)
	}
}

// The exact path draws exactly what the plain colouring draws: same maximum,
// same argmax, same generator state afterwards, on every oracle profile, at
// K from 1 to the exact path's limit, on both sides of the small-array
// bound, and windows from 0 to 60 ms.
func TestColourMaxMatchesRef(t *testing.T) {
	windows := []sim.Duration{0, sim.Microsecond, sim.Millisecond, 10 * sim.Millisecond,
		30 * sim.Millisecond, 60 * sim.Millisecond}
	for pi, p := range exactOracleProfiles() {
		for _, k := range []int{1, 2, 3, 27, smallRanks, smallRanks + 1, 1000, exactMaxRanks} {
			for wi, window := range windows {
				for s := range uint64(4) {
					checkColourMatchesRef(t, sim.StreamSeed(uint64(pi)<<16|uint64(k)<<4|uint64(wi), s), p, k, window)
				}
			}
		}
	}
}

// FuzzColourMaxMatchesRef draws (seed, K, window, profile) and checks the
// exact path against refColourMax draw for draw. K is folded into
// [1, exactMaxRanks] and the window into [0, 60 ms]. The seed corpus in
// testdata/fuzz covers every profile.
func FuzzColourMaxMatchesRef(f *testing.F) {
	profiles := exactOracleProfiles()
	f.Fuzz(func(t *testing.T, seed uint64, k uint16, windowNs uint32, pi uint8) {
		p := profiles[int(pi)%len(profiles)]
		ranks := 1 + int(k)%exactMaxRanks
		window := sim.Duration(windowNs%(60_000_000+1)) * sim.Nanosecond
		checkColourMatchesRef(t, seed, p, ranks, window)
	})
}

// The colouring path has the law of the retired per-rank walk: over the 12
// cells storm off/on × 1/30 ms windows × K ∈ {1, 64, 1,024}, the two-sample
// KS distance between MaxDetourRank's draws and refLoopMax's stays below the
// 99% critical value (20,000 draws per side, 4,000 at K = 1,024). The cells
// run in parallel, each on its own profile instances.
func TestColourMaxMatchesLoopInLaw(t *testing.T) {
	for _, storm := range []bool{false, true} {
		for _, window := range []sim.Duration{sim.Millisecond, 30 * sim.Millisecond} {
			for _, k := range []int{1, 64, exactMaxRanks} {
				name := fmt.Sprintf("storm=%v/window=%v/K=%d", storm, window, k)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					n := 20_000
					if k == exactMaxRanks {
						n = 4_000
					}
					prof := func() *Profile {
						if storm {
							return LinuxTuned().WithSource(facilityStorm())
						}
						return LinuxTuned()
					}
					p, ref := prof(), prof()
					cell := uint64(k)<<8 | uint64(window/sim.Millisecond)<<1
					if storm {
						cell |= 1
					}
					rng, refRNG := sim.NewRNG(sim.StreamSeed(51, cell)), sim.NewRNG(sim.StreamSeed(52, cell))
					got, want := make([]float64, n), make([]float64, n)
					for i := range got {
						got[i] = float64(maxDetour(rng, p, k, window))
						d, _ := refLoopMax(refRNG, ref, k, window)
						want[i] = float64(d)
					}
					d, crit := ksDistance(got, want), ksCritical99(n, n)
					t.Logf("%s: KS %.4f (critical %.4f, %d draws per side)", name, d, crit, n)
					if d >= crit {
						t.Errorf("KS distance %.4f >= 99%% critical value %.4f", d, crit)
					}
				})
			}
		}
	}
}

// The exact path keeps its per-rank sums on the stack: a max-of-K draw on
// the facility's noisiest profile allocates nothing.
func TestExactMaxAllocatesNothing(t *testing.T) {
	p := LinuxUntuned().WithSource(facilityStorm())
	rng := sim.NewRNG(5)
	MaxDetourRank(rng, p, exactMaxRanks, 30*sim.Millisecond) // build the lazy tables
	if n := testing.AllocsPerRun(20, func() { MaxDetourRank(rng, p, exactMaxRanks, 30*sim.Millisecond) }); n != 0 {
		t.Fatalf("exact max-of-K allocates %v times per call", n)
	}
}
