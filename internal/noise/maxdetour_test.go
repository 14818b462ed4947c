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

func TestMaxDetourCoreFilteredSourceExcluded(t *testing.T) {
	// A core-0-only source must not contribute to application-core
	// maxima above exactMaxRanks ranks either.
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

// Above exactMaxRanks ranks colouring keeps only the ranks its events hit
// (sparseMax) and still draws exactly what refColourMax draws: on every
// oracle profile at K from 1,025 to 131,072, at windows short enough to
// keep the reference's rank-long sums cheap, and at the mOS cells of
// Figure 4 that no table resolves, whose calls draw 12 to 24 events.
func TestSparseColourMatchesRef(t *testing.T) {
	for pi, p := range exactOracleProfiles() {
		for _, k := range []int{exactMaxRanks + 1, 2048, 4096, 65536, paperRanks} {
			for wi, window := range []sim.Duration{0, sim.Microsecond, 10 * sim.Microsecond, 100 * sim.Microsecond} {
				for s := range uint64(2) {
					checkColourMatchesRef(t, sim.StreamSeed(uint64(pi)<<20|uint64(k)<<2|uint64(wi), s), p, k, window)
				}
			}
		}
	}
	ms := func(x float64) sim.Duration { return sim.Duration(x * float64(sim.Millisecond)) }
	for ci, c := range []struct {
		window sim.Duration
		ranks  int
	}{{ms(4.87), 2048}, {ms(4.87), 4096}, {ms(10.66), 2048}} {
		p := MOSProfile()
		p.Tabulate([]sim.Duration{c.window}, c.ranks)
		if p.denseAt(c.window) != nil {
			t.Fatalf("mOS at %v, K=%d: a table resolves the maximum", c.window, c.ranks)
		}
		for s := range uint64(16) {
			checkColourMatchesRef(t, sim.StreamSeed(uint64(ci), s), p, c.ranks, c.window)
		}
	}
}

// FuzzColourMaxMatchesRef draws (seed, K, window, profile) and checks the
// colouring path against refColourMax draw for draw. K is folded into
// [1, paperRanks] and the window into [0, 60 ms·1,024/max(K, 1,024)], so
// that a call above exactMaxRanks ranks expects no more events than one at
// 1,024 ranks and 60 ms. The seed corpus in testdata/fuzz covers every
// profile and both sides of exactMaxRanks.
func FuzzColourMaxMatchesRef(f *testing.F) {
	profiles := exactOracleProfiles()
	f.Fuzz(func(t *testing.T, seed uint64, k uint32, windowNs uint32, pi uint8) {
		p := profiles[int(pi)%len(profiles)]
		ranks := 1 + int(k%paperRanks)
		span := uint32(60_000_000 * exactMaxRanks / max(ranks, exactMaxRanks))
		window := sim.Duration(windowNs%(span+1)) * sim.Nanosecond
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

// Colouring keeps its per-rank sums on the stack: a max-of-K draw on the
// facility's noisiest profile at exactMaxRanks ranks allocates nothing, nor
// does one above exactMaxRanks at the mOS cells of Figure 4 that no table
// resolves.
func TestExactMaxAllocatesNothing(t *testing.T) {
	p := LinuxUntuned().WithSource(facilityStorm())
	rng := sim.NewRNG(5)
	MaxDetourRank(rng, p, exactMaxRanks, 30*sim.Millisecond) // build the lazy tables
	if n := testing.AllocsPerRun(20, func() { MaxDetourRank(rng, p, exactMaxRanks, 30*sim.Millisecond) }); n != 0 {
		t.Fatalf("exact max-of-K allocates %v times per call", n)
	}
	mos := MOSProfile()
	mos.Warm()
	for _, k := range []int{2048, 4096} {
		if n := testing.AllocsPerRun(200, func() { MaxDetourRank(rng, mos, k, 4870*sim.Microsecond) }); n != 0 {
			t.Fatalf("colouring over %d ranks allocates %v times per call", k, n)
		}
	}
}

// FuzzMaxDetourSequence draws a sequence of max-of-K calls on one view, whose
// cached (window, ranks) entries (maxAt) carry over from call to call, and
// holds it draw for draw to the same calls each made on a fresh view from a
// twin generator: the same maximum, argmax and generator state after every
// call. ops is read in pairs (a, b): the window is a's low two bits (0.79,
// 1, 10 or 30 ms) and the rank count b mod 6 (1, 27, 64, 1,024, 2,048 or
// 131,072, the last only at windows up to 1 ms, where colouring it stays
// cheap; above that 2,048); a with its high bit set Tabulates the view at
// that window for that rank count instead of drawing. The profile is
// LinuxTuned, LinuxTuned under the facility storm or McKernel. The seed
// corpus (f.Add) alternates two rank counts at one window, evicts an entry
// with a third, changes window and returns to an evicted key, colours above
// exactMaxRanks (sparseMax), and draws at a tabled window both at a rank
// count its table resolves and at one it does not, with Tabulate between
// draws.
func FuzzMaxDetourSequence(f *testing.F) {
	profiles := []func() *Profile{
		LinuxTuned,
		func() *Profile { return LinuxTuned().WithSource(facilityStorm()) },
		McKernelProfile,
	}
	windows := [4]sim.Duration{790 * sim.Microsecond, sim.Millisecond, 10 * sim.Millisecond, 30 * sim.Millisecond}
	rankCounts := [6]int{1, 27, smallRanks, exactMaxRanks, 2048, paperRanks}
	const tab = 0x80
	// Windows 0.79, 1, 10, 30 ms are 0..3; rank counts 1..131,072 are 0..5.
	steps := []byte{tab | 3, 3, 3, 3, 3, 1, 3, 3, 3, 1, 3, 2, 3, 3, 3, 1, 2, 3, 2, 1, 3, 1, 3, 3}
	sparse := []byte{1, 5, 1, 4, 0, 5, tab | 1, 5, 1, 5, 1, 1, 0, 5, 3, 4, 2, 4, tab | 3, 4, 3, 4, 3, 1}
	for pi := range profiles {
		f.Add(uint64(pi+1), uint8(pi), steps)
		f.Add(uint64(pi+11), uint8(pi), sparse)
	}
	f.Fuzz(func(t *testing.T, seed uint64, pi uint8, ops []byte) {
		base := profiles[int(pi)%len(profiles)]()
		base.Warm()
		view, tmpl := base.CloneTables(0), base.CloneTables(0)
		rng, ref := sim.NewRNG(seed), sim.NewRNG(seed)
		for i := 0; i+1 < len(ops) && i < 64; i += 2 {
			w, k := windows[ops[i]&3], rankCounts[int(ops[i+1])%len(rankCounts)]
			if k > 2048 && w > sim.Millisecond {
				k = 2048
			}
			if ops[i]&tab != 0 {
				view.Tabulate([]sim.Duration{w}, k)
				tmpl.Tabulate([]sim.Duration{w}, k)
				continue
			}
			d, r := MaxDetourRank(rng, view, k, w)
			wd, wr := MaxDetourRank(ref, tmpl.CloneTables(len(tmpl.dense)), k, w)
			if d != wd || r != wr {
				t.Fatalf("call %d (%v, K=%d): (%v, rank %d) on the view, (%v, rank %d) on a fresh one", i/2, w, k, d, r, wd, wr)
			}
			if got, want := rng.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("call %d (%v, K=%d): next draw %#x on the view, %#x on a fresh one", i/2, w, k, got, want)
			}
		}
	})
}

// A view that alternates a collective over 1,024 ranks and a 27-rank halo
// at one tabled window, as the step loop does, fills its two max-of-K
// entries on the first two calls, the collective's with the table and the
// halo's without, and every later call hits them.
func TestMaxDetourEntriesServeTheStepLoop(t *testing.T) {
	const window = 30 * sim.Millisecond
	p := LinuxTuned()
	p.Tabulate([]sim.Duration{window}, exactMaxRanks)
	v := p.CloneTables(1)
	rng := sim.NewRNG(3)
	MaxDetourRank(rng, v, exactMaxRanks, window)
	MaxDetourRank(rng, v, 27, window)
	filled, older := v.maxes, v.older
	if filled[0].ranks != exactMaxRanks || filled[0].tab == nil || filled[1].ranks != 27 || filled[1].tab != nil {
		t.Fatalf("entries after a collective and a halo: %+v", filled)
	}
	for i := range 100 {
		MaxDetourRank(rng, v, exactMaxRanks, window)
		MaxDetourRank(rng, v, 27, window)
		if v.maxes != filled || v.older != older {
			t.Fatalf("step %d refilled an entry: %+v", i, v.maxes)
		}
	}
}
