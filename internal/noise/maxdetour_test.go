package noise

import (
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

func TestMaxDetourZeroCases(t *testing.T) {
	p := LinuxTuned()
	rng := sim.NewRNG(1)
	if MaxDetour(rng, p, 0, sim.Millisecond) != 0 {
		t.Fatal("zero ranks")
	}
	if MaxDetour(rng, p, 64, 0) != 0 {
		t.Fatal("zero window")
	}
	quiet := &Profile{Name: "quiet"}
	if MaxDetour(rng, quiet, 1<<20, sim.Second) != 0 {
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
			xs = append(xs, float64(MaxDetour(rng, p, ranks, window)))
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
		if d := MaxDetour(rng, p, 131072, window); d > worst {
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
			xs = append(xs, float64(MaxDetour(rng, p, ranks, window)))
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
	if d := MaxDetour(rng, p, 1<<20, 10*sim.Millisecond); d != 0 {
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
		many += float64(MaxDetour(rng, p, 65536, window))
	}
	if many <= one {
		t.Fatalf("max over 64k ranks (%v) not above single rank (%v)", many/n, one/n)
	}
}

// refLoopMax is the retired exact branch of MaxDetourRank, kept as the
// reference exactMax is held to draw for draw, the way sampler_test.go keeps
// the polar sampler: `ranks` successive single-rank draws on application
// core 1, the first rank with the largest total winning.
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

// exactOracleProfiles are the profiles the exact path is checked on against
// refLoopMax: the four canonical kernels, tuned Linux under the facility
// storm and under a storm whose per-rank mean exceeds the Knuth cutoff at
// 30 ms (normal-approximation counts), a profile with a zero-Period and a
// core-0-only source among live ones, and one with more sources than
// exactMax plans on the stack.
func exactOracleProfiles() []*Profile {
	edge := &Profile{Name: "edge", Sources: []Source{
		{Name: "no-period", Mean: sim.Millisecond, CV: 0.5},
		{Name: "core0", Period: 100 * sim.Microsecond, Mean: 50 * sim.Microsecond, CV: 1,
			CoreFilter: func(core int) bool { return core == 0 }},
		{Name: "fixed", Period: 3 * sim.Millisecond, Mean: 7 * sim.Microsecond},
	}}
	wide := LinuxUntuned().WithSource(facilityStorm())
	for len(wide.Sources) <= plansOnStack {
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
		wide,
	}
}

// checkExactMatchesLoop runs MaxDetourRank and refLoopMax from twin
// generators and fails unless they return the same maximum and argmax and
// leave their generators at the same state.
func checkExactMatchesLoop(t *testing.T, seed uint64, p *Profile, ranks int, window sim.Duration) {
	t.Helper()
	rng, ref := sim.NewRNG(seed), sim.NewRNG(seed)
	d, r := MaxDetourRank(rng, p, ranks, window)
	wd, wr := refLoopMax(ref, p, ranks, window)
	if d != wd || r != wr {
		t.Fatalf("%s K=%d window=%v seed=%d: got (%v, rank %d), loop gives (%v, rank %d)",
			p.Name, ranks, window, seed, d, r, wd, wr)
	}
	if got, want := rng.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("%s K=%d window=%v seed=%d: next draw %#x, loop leaves %#x",
			p.Name, ranks, window, seed, got, want)
	}
}

// The exact path draws exactly what the per-rank loop drew: same maximum,
// same argmax, same generator state afterwards, on every oracle profile,
// at K from 1 to the exact path's limit and windows from 0 to 60 ms.
func TestExactMaxMatchesLoop(t *testing.T) {
	windows := []sim.Duration{0, sim.Microsecond, sim.Millisecond, 10 * sim.Millisecond,
		30 * sim.Millisecond, 60 * sim.Millisecond}
	for pi, p := range exactOracleProfiles() {
		for _, k := range []int{1, 2, 63, 64, exactMaxRanks} {
			for wi, window := range windows {
				for s := range uint64(4) {
					checkExactMatchesLoop(t, sim.StreamSeed(uint64(pi)<<16|uint64(k)<<4|uint64(wi), s), p, k, window)
				}
			}
		}
	}
}

// seedEmitting returns a seed whose generator's first Uint64 is v, by
// inverting the SplitMix64 output function (each xorshift and odd multiply
// is a bijection on 64-bit words).
func seedEmitting(v uint64) uint64 {
	unshift := func(y uint64, k uint) uint64 {
		z := y
		for i := uint(0); i < 64; i += k {
			z = y ^ (z >> k)
		}
		return z
	}
	// inverse of an odd a mod 2^64 by Newton's iteration.
	inverse := func(a uint64) uint64 {
		x := a
		for range 6 {
			x *= 2 - a*x
		}
		return x
	}
	z := unshift(v, 31)
	z = unshift(z*inverse(0x94d049bb133111eb), 27)
	z = unshift(z*inverse(0xbf58476d1ce4e5b9), 30)
	return z - 0x9e3779b97f4a7c15
}

// A first uniform exactly at exp(-λ) makes a zero count, as in Knuth's
// `p <= l`, and one a mantissa above does not. Random draws land on the
// boundary with probability 2^-53, so the generators here are built to
// emit it: at λ = 0.1, exp(-λ)·2^53 is an integer, and at λ = 30 it is not.
func TestExactMaxZeroBoundary(t *testing.T) {
	const window = 30 * sim.Millisecond
	for _, period := range []sim.Duration{300 * sim.Millisecond, sim.Millisecond} {
		p := &Profile{Name: "boundary", Sources: []Source{{Name: "one", Period: period, Mean: sim.Microsecond, CV: 0.3}}}
		_, l := p.Sources[0].lambda(window)
		zero := uint64(l * (1 << 53))
		for _, m := range []uint64{zero - 1, zero, zero + 1} {
			checkExactMatchesLoop(t, seedEmitting(m<<11|0x5a5), p, 1, window)
		}
		if d, _ := MaxDetourRank(sim.NewRNG(seedEmitting((zero+1)<<11)), p, 1, window); d == 0 {
			t.Fatalf("λ=%v: a mantissa above the threshold drew no detour", float64(window)/float64(period))
		}
	}
}

// FuzzExactMaxMatchesLoop draws (seed, K, window, profile) and checks the
// exact path against refLoopMax draw for draw. K is folded into
// [1, exactMaxRanks] and the window into [0, 60 ms]. The seed corpus in
// testdata/fuzz covers every profile.
func FuzzExactMaxMatchesLoop(f *testing.F) {
	profiles := exactOracleProfiles()
	f.Fuzz(func(t *testing.T, seed uint64, k uint16, windowNs uint32, pi uint8) {
		p := profiles[int(pi)%len(profiles)]
		ranks := 1 + int(k)%exactMaxRanks
		window := sim.Duration(windowNs%(60_000_000+1)) * sim.Nanosecond
		checkExactMatchesLoop(t, seed, p, ranks, window)
	})
}

// The exact path plans its sources on the stack: a max-of-K draw on the
// facility's noisiest profile allocates nothing.
func TestExactMaxAllocatesNothing(t *testing.T) {
	p := LinuxUntuned().WithSource(facilityStorm())
	rng := sim.NewRNG(5)
	MaxDetourRank(rng, p, exactMaxRanks, 30*sim.Millisecond) // build the lazy tables
	if n := testing.AllocsPerRun(20, func() { MaxDetourRank(rng, p, exactMaxRanks, 30*sim.Millisecond) }); n != 0 {
		t.Fatalf("exact max-of-K allocates %v times per call", n)
	}
}
