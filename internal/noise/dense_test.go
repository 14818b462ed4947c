package noise

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"testing"

	"mklite/internal/par"
	"mklite/internal/sim"
)

// newTable builds p's dense-window table at window whether or not p is
// dense there: the table's law does not depend on the threshold that
// decides when MaxDetourRank uses it.
func newTable(p *Profile, window sim.Duration) *denseTable {
	t := &denseTable{window: window}
	t.build(p)
	return t
}

// tableMoments returns the mean and variance of the table's law, the
// piecewise-linear survival function integrated exactly: E[D] = ∫S and
// E[D²] = ∫2x·S.
func tableMoments(t *denseTable) (mean, variance float64) {
	var m1, m2 float64
	seg := func(a, b, sa, sb float64) {
		m1 += (b - a) * (sa + sb) / 2
		m2 += (b - a) * ((2*a+b)*sa + (a+2*b)*sb) / 3
	}
	seg(0, t.h/2, t.g0, float64(t.sv[0]))
	for i := 1; i < len(t.sv); i++ {
		seg((float64(i)-0.5)*t.h, (float64(i)+0.5)*t.h, float64(t.sv[i-1]), float64(t.sv[i]))
	}
	return m1, m2 - m1*m1
}

// detourLaw returns the exact mean and variance of one rank's summed
// detour on core 1, Σλ·E[X] and Σλ·E[X²], and Σλ·(1 + [tail]), the rate
// of discretised detour parts.
func detourLaw(p *Profile, window sim.Duration) (mean, variance, parts float64) {
	for i := range p.Sources {
		s := &p.Sources[i]
		if !s.drawsOnAppCore() {
			continue
		}
		lam := float64(window) / float64(s.Period)
		m1, m2 := s.detourMoments()
		mean += lam * m1
		variance += lam * m2
		parts += lam
		if s.hasTail() {
			parts += lam
		}
	}
	return mean, variance, parts
}

// checkMoments holds the table's mean and variance to the exact ones
// within the grid tolerance. Each detour part (a base, or a tail) is split
// between neighbouring grid points so its mean is kept, which adds at most
// h²/4 to its second moment, except a log-normal base's thin upper tail
// (survival below denseRound), which is rounded: that moves each detour's
// mean by at most denseRound·h/2. Spreading each grid point's mass over its
// cell adds h²/12. The mass ε = g0 − sv[0] of the
// zero cell that is spread over [0, h/2] moves the mean by at most ε·h/4
// and the variance by at most ε·h·(mean/2 + h). Mass beyond the grid and
// below denseFloor, FFT round-off and the survival's float32 storage (2⁻²⁴
// relative) move either moment by under 1e-6 of E[D] or E[D²].
func checkMoments(t *testing.T, p *Profile, tab *denseTable) {
	t.Helper()
	mean, variance, parts := detourLaw(p, tab.window)
	gotMean, gotVar := tableMoments(tab)
	h := tab.h
	eps := tab.g0 - float64(tab.sv[0])
	meanTol := eps*h/4 + parts*denseRound*h/2 + 1e-6*mean
	varTol := parts*h*h/4 + h*h/12 + eps*h*(mean/2+h) + 1e-6*(variance+mean*mean)
	if d := math.Abs(gotMean - mean); !(d <= meanTol) {
		t.Errorf("window %v: table mean %.6g ns, exact %.6g (off %.3g, tolerance %.3g, h %.4g)",
			tab.window, gotMean, mean, d, meanTol, h)
	}
	if d := math.Abs(gotVar - variance); !(d <= varTol) {
		t.Errorf("window %v: table variance %.6g ns², exact %.6g (off %.3g, tolerance %.3g, h %.4g)",
			tab.window, gotVar, variance, d, varTol, h)
	}
}

// denseCells are the law cells: LinuxTuned with the facility storm at 1 ms
// (λ = 0.5 for the storm, not dense, so only a direct build reaches it) and
// 30 ms, and the storm alone at 80 ms, λ = 40 > 30.
func denseCells() []struct {
	name   string
	prof   func() *Profile
	window sim.Duration
} {
	stormy := func() *Profile { return LinuxTuned().WithSource(facilityStorm()) }
	stormOnly := func() *Profile { return &Profile{Name: "storm", Sources: []Source{facilityStorm()}} }
	return []struct {
		name   string
		prof   func() *Profile
		window sim.Duration
	}{
		{"linux-tuned+storm/1ms", stormy, sim.Millisecond},
		{"linux-tuned+storm/30ms", stormy, 30 * sim.Millisecond},
		{"storm/80ms", stormOnly, 80 * sim.Millisecond},
	}
}

// The table path has the law of Poisson colouring, the exact path: in each
// law cell at K ∈ {1, 27, 64, 1,024, 4,096}, the two-sample KS distance
// between 20,000 table draws and colouring's draws stays below the 99%
// critical value. Colouring draws are budgeted at about 2×10⁷ detours per
// cell (4,000 at most, 400 at least; a quarter under -race); at K = 4,096
// the reference colours into a heap buffer, since the exact path stops at
// 1,024 ranks.
func TestDenseTableMatchesColouring(t *testing.T) {
	for ci, c := range denseCells() {
		for _, k := range []int{1, 27, smallRanks, exactMaxRanks, 4096} {
			name := fmt.Sprintf("%s/K=%d", c.name, k)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				p, ref := c.prof(), c.prof()
				tab := newTable(p, c.window)
				_, _, rate := detourLaw(ref, c.window)
				m := int(min(4000, max(400, 2e7/(rate*float64(k)))))
				if raceEnabled {
					m /= 4
				}
				const n = 20_000
				cell := uint64(ci)<<16 | uint64(k)
				rng, refRNG := sim.NewRNG(sim.StreamSeed(61, cell)), sim.NewRNG(sim.StreamSeed(62, cell))
				got, want := make([]float64, n), make([]float64, m)
				for i := range got {
					d, _ := tab.max(rng, k)
					got[i] = float64(d)
				}
				sums := make([]sim.Duration, k)
				for i := range want {
					clear(sums)
					d, _ := colour(refRNG, ref, sums, c.window)
					want[i] = float64(d)
				}
				d, crit := ksDistance(got, want), ksCritical99(n, m)
				t.Logf("%s: KS %.4f (critical %.4f, %d table and %d colouring draws)", name, d, crit, n, m)
				if d >= crit {
					t.Errorf("KS distance %.4f >= 99%% critical value %.4f", d, crit)
				}
			})
		}
	}
}

// refFullTable builds the table at window as the grids did when they kept
// all denseGrid entries of Ψ: the sources without a tail transformed into
// the full array, each tailed source's term added to its first half, and
// compound exponentiating that half and mirroring it. The step and the
// doubling rule are build's.
func refFullTable(p *Profile, window sim.Duration) (h, g0 float64, sv []float32) {
	span, lam0 := p.denseSpan(window)
	g0 = -math.Expm1(-lam0)
	var surv [denseGrid]float64
	if !(span > 0) || math.IsInf(span, 0) {
		h, g0 = 1, 0
	} else {
		h = gridStep(span)
		for try := 0; ; try++ {
			var psi, z [denseGrid]complex128
			var pmf [denseGrid]float64
			for i := range p.Sources {
				if s := &p.Sources[i]; s.drawsOnAppCore() && !s.hasTail() {
					s.basePMF(&pmf, h, 1/float64(s.Period))
				}
			}
			for j := range psi {
				psi[j] = complex(pmf[j], 0)
			}
			fft(&psi, false)
			for i := range p.Sources {
				s := &p.Sources[i]
				if !s.drawsOnAppCore() || !s.hasTail() {
					continue
				}
				pmf = [denseGrid]float64{}
				s.basePMF(&pmf, h, 1)
				for j := range z {
					z[j] = complex(pmf[j], 0)
				}
				pmf = [denseGrid]float64{}
				s.tailPMF(&pmf, h)
				for j := range z {
					z[j] += complex(0, pmf[j])
				}
				fft(&z, false)
				rate, q := complex(1/float64(s.Period), 0), complex(s.tailProb(), 0)
				for k := 0; k <= denseGrid/2; k++ {
					zk, zc := z[k], cmplx.Conj(z[(denseGrid-k)%denseGrid])
					base, tail := (zk+zc)*0.5, (zk-zc)*complex(0, -0.5)
					psi[k] += rate * base * (1 - q + q*tail)
				}
			}
			w := complex(float64(window), 0)
			for k := 0; k <= denseGrid/2; k++ {
				z[k] = cmplx.Exp(w * (psi[k] - psi[0]))
			}
			for k := denseGrid/2 + 1; k < denseGrid; k++ {
				z[k] = cmplx.Conj(z[denseGrid-k])
			}
			fft(&z, true)
			var tail float64
			for i := denseGrid - 1; i >= 0; i-- {
				surv[i] = tail
				if m := real(z[i]) / denseGrid; m >= denseFloor {
					tail += m
				}
			}
			if surv[denseGrid*7/8] <= denseTail || try == 3 {
				break
			}
			h *= 2
		}
	}
	n := 1
	sv = make([]float32, denseGrid)
	for i := range surv {
		v := float32(surv[i])
		for float64(v) > g0 {
			v = math.Nextafter32(v, 0)
		}
		sv[i] = v
		if v > 0 {
			n = i + 2
		}
	}
	sv = sv[:min(n, denseGrid)]
	sv[len(sv)-1] = 0
	return h, g0, sv
}

// A grid keeps Ψ's Hermitian half only, and every table it builds is the
// one the full array built, bit for bit: the same step, g0 and survival in
// the law cells and at the facility's windows.
func TestHalfPsiMatchesFullArray(t *testing.T) {
	type cell struct {
		p      *Profile
		window sim.Duration
	}
	var cells []cell
	for _, c := range denseCells() {
		cells = append(cells, cell{c.prof(), c.window})
	}
	for _, w := range []sim.Duration{2 * sim.Millisecond, 10 * sim.Millisecond, 35 * sim.Millisecond, 90 * sim.Millisecond} {
		cells = append(cells, cell{LinuxTuned().WithSource(facilityStorm()), w})
	}
	for _, c := range cells {
		tab := newTable(c.p, c.window)
		h, g0, sv := refFullTable(c.p, c.window)
		same := math.Float64bits(tab.h) == math.Float64bits(h) && math.Float64bits(tab.g0) == math.Float64bits(g0) &&
			len(tab.sv) == len(sv)
		for j := 0; same && j < len(sv); j++ {
			same = math.Float32bits(tab.sv[j]) == math.Float32bits(sv[j])
		}
		if !same {
			t.Errorf("%s at %v: the half-Ψ table differs from the full array's (h %v and %v, %d and %d knots)",
				c.p.Name, c.window, tab.h, h, len(tab.sv), len(sv))
		}
	}
}

// A table's mean and variance are the compound-Poisson law's, Σλ·E[X] and
// Σλ·E[X²], within the grid tolerance of checkMoments, in the law cells and
// at the facility's windows.
func TestDenseTableMoments(t *testing.T) {
	for _, c := range denseCells() {
		checkMoments(t, c.prof(), newTable(c.prof(), c.window))
	}
	p := LinuxTuned().WithSource(facilityStorm())
	for _, w := range []sim.Duration{2 * sim.Millisecond, 10 * sim.Millisecond, 35 * sim.Millisecond, 90 * sim.Millisecond} {
		checkMoments(t, p, newTable(p, w))
	}
}

// The table path costs the same at any rank count: a call draws exactly two
// uniforms (the order statistic's and the argmax's) at K = 64 and at
// K = 131,072 alike, and colouring, at K = 64, draws more.
func TestDenseTableCostFlatInK(t *testing.T) {
	const window = 30 * sim.Millisecond
	p := LinuxTuned().WithSource(facilityStorm())
	p.Tabulate([]sim.Duration{window}, smallRanks)
	for _, k := range []int{smallRanks, 131072} {
		rng, ref := sim.NewRNG(9), sim.NewRNG(9)
		for range 100 {
			MaxDetourRank(rng, p, k, window)
			ref.Uint64()
			ref.Uint64()
		}
		if rng.Uint64() != ref.Uint64() {
			t.Errorf("K=%d: the table path drew other than two uniforms per call", k)
		}
	}
	bare := LinuxTuned().WithSource(facilityStorm())
	rng, ref := sim.NewRNG(9), sim.NewRNG(9)
	MaxDetourRank(rng, bare, smallRanks, window)
	ref.Uint64()
	ref.Uint64()
	if rng.Uint64() == ref.Uint64() {
		t.Error("an untabulated profile drew two uniforms: the check cannot tell the paths apart")
	}
}

// Tabulate attaches tables exactly where Tabled holds for its rank count,
// once per window, shares them with views, and leaves every other
// window's draws untouched: off a tabled window, MaxDetourRank draws
// exactly what it draws from a profile without tables. Tabled holds at a
// dense window at any rank count its grid resolves, at a sparse one up
// to exactMaxRanks ranks where a call expects tableEvents events, and
// above exactMaxRanks at any window whose maximum the grid resolves: under
// the facility storm at 1 ms (Λ ≈ 0.52) at K = 1,024 and 4,096, not at 64;
// on LinuxTuned at the Figure 4 window 42.8 ms (Λ ≈ 0.90) at 512, 1,024
// and 2,048 ranks, not at 256; on McKernel at 0.79 ms (Λ ≈ 0.0008) at
// 131,072 ranks, about 100 events per call. A profile with an uncapped
// tail gets none.
func TestTabulateTabledWindowsOnly(t *testing.T) {
	ms := func(x float64) sim.Duration { return sim.Duration(x * float64(sim.Millisecond)) }
	p := LinuxTuned().WithSource(facilityStorm())
	windows := []sim.Duration{sim.Millisecond, 2 * sim.Millisecond, 30 * sim.Millisecond, 2 * sim.Millisecond}
	p.Tabulate(windows, smallRanks)
	if len(p.dense) != 2 || p.denseAt(sim.Millisecond) != nil ||
		p.denseAt(2*sim.Millisecond) == nil || p.denseAt(30*sim.Millisecond) == nil {
		t.Fatalf("tables at %d windows, want 2 ms and 30 ms only", len(p.dense))
	}
	if c := p.CloneTables(2); len(c.dense) != 2 || &c.dense[0].sv[0] != &p.dense[0].sv[0] {
		t.Error("a view does not share the profile's tables")
	}
	if LinuxTuned().Dense(50*sim.Millisecond) || !LinuxTuned().Dense(100*sim.Millisecond) {
		t.Error("LinuxTuned's densest core-1 source has a 100 ms period")
	}
	for _, c := range []struct {
		p      *Profile
		window sim.Duration
		ranks  int
		want   bool
	}{
		{LinuxTuned().WithSource(facilityStorm()), sim.Millisecond, smallRanks, false},
		{LinuxTuned().WithSource(facilityStorm()), sim.Millisecond, exactMaxRanks, true},
		{LinuxTuned().WithSource(facilityStorm()), sim.Millisecond, 4096, true},
		{LinuxTuned().WithSource(facilityStorm()), 30 * sim.Millisecond, 131072, true},
		{LinuxTuned(), ms(42.807856), 256, false},
		{LinuxTuned(), ms(42.807856), 512, true},
		{LinuxTuned(), ms(42.807856), exactMaxRanks, true},
		{LinuxTuned(), ms(42.807856), 2048, true},
		{McKernelProfile(), ms(0.79), 131072, true},
		{LinuxTuned(), ms(42.807856), 27, false},
	} {
		if got := c.p.Tabled(c.window, c.ranks); got != c.want {
			t.Errorf("%s at %v, K=%d: Tabled %v, want %v", c.p.Name, c.window, c.ranks, got, c.want)
		}
		c.p.Tabulate([]sim.Duration{c.window}, c.ranks)
		if got := c.p.denseAt(c.window) != nil; got != c.want {
			t.Errorf("%s at %v, K=%d: table attached %v, want %v", c.p.Name, c.window, c.ranks, got, c.want)
		}
	}
	bare := LinuxTuned().WithSource(facilityStorm())
	for _, k := range []int{1, smallRanks, exactMaxRanks, 4096} {
		rng, ref := sim.NewRNG(uint64(k)), sim.NewRNG(uint64(k))
		for range 50 {
			d, r := MaxDetourRank(rng, p, k, sim.Millisecond)
			wd, wr := MaxDetourRank(ref, bare, k, sim.Millisecond)
			if d != wd || r != wr {
				t.Fatalf("K=%d at an untabled window: (%v, %d), without tables (%v, %d)", k, d, r, wd, wr)
			}
		}
	}
	uncapped := LinuxTuned().WithSource(facilityStorm())
	uncapped.Sources[2].TailCap = 0
	uncapped.Tabulate(windows, smallRanks)
	if len(uncapped.dense) != 0 {
		t.Error("a profile with an uncapped tail got tables")
	}
}

// At a tabled window, a call at a rank count the table does not resolve
// colours, draw for draw what refColourMax draws, while the rank count the
// table was built for takes the table: a 27-rank halo at LinuxTuned's
// 42.8 ms window tabled for 1,024 ranks, and 1 to 64 ranks at untuned
// Linux's dense 5 ms and 30 ms windows, whose 3 µs tick a 16–33 µs grid
// cannot hold (TestUnresolvedCellsColour).
func TestUnresolvedRanksColour(t *testing.T) {
	ms := func(x float64) sim.Duration { return sim.Duration(x * float64(sim.Millisecond)) }
	for ci, c := range []struct {
		p      *Profile
		window sim.Duration
		built  int
		ranks  []int
	}{
		{LinuxTuned(), ms(42.807856), exactMaxRanks, []int{1, 27, smallRanks}},
		{LinuxUntuned(), 5 * sim.Millisecond, 4096, []int{1, 27, smallRanks}},
		{LinuxUntuned(), 30 * sim.Millisecond, 4096, []int{1, 27, smallRanks}},
	} {
		c.p.Tabulate([]sim.Duration{c.window}, c.built)
		tab := c.p.denseAt(c.window)
		if tab == nil || !tab.resolves(c.built) {
			t.Fatalf("%s at %v: no table resolving K=%d", c.p.Name, c.window, c.built)
		}
		if !tablePath(c.p, c.built, c.window) {
			t.Errorf("%s at %v, K=%d: the table it was built for is not drawn from", c.p.Name, c.window, c.built)
		}
		for _, k := range c.ranks {
			if tab.resolves(k) {
				t.Fatalf("%s at %v: the table resolves K=%d", c.p.Name, c.window, k)
			}
			for s := range uint64(8) {
				checkColourMatchesRef(t, sim.StreamSeed(uint64(ci)<<16|uint64(k), s), c.p, k, c.window)
			}
		}
	}
}

// tablePath reports whether MaxDetourRank takes the table path for ranks
// ranks at window: that path draws exactly two uniforms, where colouring
// and the order statistic draw at least one per source of a Linux profile.
func tablePath(p *Profile, ranks int, window sim.Duration) bool {
	rng, ref := sim.NewRNG(uint64(window)), sim.NewRNG(uint64(window))
	MaxDetourRank(rng, p, ranks, window)
	ref.Uint64()
	ref.Uint64()
	return rng.Uint64() == ref.Uint64()
}

// ksTableCell draws n maxima over k ranks from tab and m from colouring on
// ref at the table's window, and returns their two-sample KS distance and
// the 1% critical value. Colouring draws are budgeted at about 2×10⁷
// detours (4,000 at most; a quarter under -race) and number at least
// 1,000, with and without -race, so that the cells that colour most draw
// the same sample in both modes.
func ksTableCell(tab *denseTable, ref *Profile, k int, seed uint64) (d, crit float64, m int) {
	_, _, rate := detourLaw(ref, tab.window)
	m = int(min(4000, max(1000, 2e7/(rate*float64(k)))))
	if raceEnabled {
		m = max(m/4, 1000)
	}
	const n = 20_000
	rng, refRNG := sim.NewRNG(sim.StreamSeed(seed, 1)), sim.NewRNG(sim.StreamSeed(seed, 2))
	got, want := make([]float64, n), make([]float64, m)
	for i := range got {
		d, _ := tab.max(rng, k)
		got[i] = float64(d)
	}
	sums := make([]sim.Duration, k)
	for i := range want {
		clear(sums)
		d, _ := colour(refRNG, ref, sums, tab.window)
		want[i] = float64(d)
	}
	return ksDistance(got, want), ksCritical99(n, m), m
}

// paperRanks is the largest rank count a paper figure draws a maximum
// over: 2,048 nodes of 64 ranks.
const paperRanks = 131072

// resolvedCells are the profiles and windows the resolution bound is held
// to: LinuxTuned at the Figure 4 and scheduler-sweep windows from 5 to
// 89 ms, untuned Linux at a dense 5 ms and 30 ms, McKernel and mOS at 5 and
// 42.8 ms, and tuned Linux under the facility storm at 1, 10 and 30 ms.
func resolvedCells() []struct {
	name   string
	prof   func() *Profile
	window sim.Duration
} {
	ms := func(x float64) sim.Duration { return sim.Duration(x * float64(sim.Millisecond)) }
	stormy := func() *Profile { return LinuxTuned().WithSource(facilityStorm()) }
	type cell = struct {
		name   string
		prof   func() *Profile
		window sim.Duration
	}
	var cells []cell
	for _, w := range []float64{5.03, 10.29, 42.8, 71.65, 88.85} {
		cells = append(cells, cell{"linux-tuned", LinuxTuned, ms(w)})
	}
	for _, w := range []float64{5, 30} {
		cells = append(cells, cell{"linux-untuned", LinuxUntuned, ms(w)})
	}
	for _, w := range []float64{5, 42.8} {
		cells = append(cells, cell{"mckernel", McKernelProfile, ms(w)}, cell{"mos", MOSProfile, ms(w)})
	}
	for _, w := range []float64{1, 10, 30} {
		cells = append(cells, cell{"linux-tuned+storm", stormy, ms(w)})
	}
	return cells
}

// At every resolved boundary cell, the smallest rank count up to
// paperRanks whose maximum a (profile, window)'s table resolves, the
// table has the law of colouring: the two-sample KS distance between 20,000
// table draws and colouring's draws stays below the 99% critical value.
// The smallest resolved K is the hardest for the grid: the maximum sits
// lowest there. Up to exactMaxRanks, where a sparse window gets a table
// only from tableEvents events a call, the boundary of such a window may
// lie below the K that builds its table; above it, every window whose grid
// resolves K gets one, so there the boundary is where tables start. A
// cell no K up to paperRanks resolves colours at every K and has nothing
// to test.
func TestResolvedBoundaryMatchesColouring(t *testing.T) {
	tested := 0
	for ci, c := range resolvedCells() {
		tab := newTable(c.prof(), c.window)
		k := 1
		for k <= paperRanks && !tab.resolves(k) {
			k++
		}
		if k > paperRanks {
			t.Logf("%s at %v: no K up to %d resolved", c.name, c.window, paperRanks)
			continue
		}
		tested++
		name := fmt.Sprintf("%s/%v/K=%d", c.name, c.window, k)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d, crit, m := ksTableCell(tab, c.prof(), k, sim.StreamSeed(63, uint64(ci)))
			t.Logf("%s: KS %.4f (critical %.4f, %d colouring draws)", name, d, crit, m)
			if d >= crit {
				t.Errorf("KS distance %.4f >= 99%% critical value %.4f", d, crit)
			}
		})
	}
	if tested < 10 {
		t.Errorf("only %d cells resolved", tested)
	}
}

// Above exactMaxRanks ranks the table Tabulate builds has the law of
// colouring at the Figure 4 cells where the order-statistic sum once
// failed or came closest to failing, and under daemon storms: the
// two-sample KS distance between 20,000 table draws and colouring's draws
// (refColourMax's, into one reused buffer) stays below the 99% critical
// value. The cells are LinuxTuned at 1.12 ms (K = 131,072), 11.16 ms
// (4,096) and 21.96 ms (2,048), McKernel at 0.79 ms (131,072) and
// 21.46 ms (2,048), mOS at 0.93 ms (65,536), 0.79 ms (131,072) and
// 10.75 ms (4,096), and tuned Linux at 131,072 ranks under the facility
// storm at 1 ms and under a storm of 10 ms period and 200 µs bursts at
// 10 ms.
func TestPaperTablesMatchColouring(t *testing.T) {
	ms := func(x float64) sim.Duration { return sim.Duration(x * float64(sim.Millisecond)) }
	storm10 := func() *Profile { return LinuxTuned().WithSource(Storm(10*sim.Millisecond, 200*sim.Microsecond, 0.5)) }
	stormy := func() *Profile { return LinuxTuned().WithSource(facilityStorm()) }
	for ci, c := range []struct {
		name   string
		prof   func() *Profile
		window sim.Duration
		ranks  int
	}{
		{"linux-tuned", LinuxTuned, ms(1.12), paperRanks},
		{"linux-tuned", LinuxTuned, ms(11.16), 4096},
		{"linux-tuned", LinuxTuned, ms(21.96), 2048},
		{"mckernel", McKernelProfile, ms(0.79), paperRanks},
		{"mckernel", McKernelProfile, ms(21.46), 2048},
		{"mos", MOSProfile, ms(0.93), 65536},
		{"mos", MOSProfile, ms(0.79), paperRanks},
		{"mos", MOSProfile, ms(10.75), 4096},
		{"linux-tuned+storm", stormy, sim.Millisecond, paperRanks},
		{"linux-tuned+storm10ms", storm10, 10 * sim.Millisecond, paperRanks},
	} {
		name := fmt.Sprintf("%s/%v/K=%d", c.name, c.window, c.ranks)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := c.prof()
			p.Tabulate([]sim.Duration{c.window}, c.ranks)
			tab := p.denseAt(c.window)
			if tab == nil || !tab.resolves(c.ranks) {
				t.Fatalf("no table resolving K=%d", c.ranks)
			}
			d, crit, m := ksTableCell(tab, c.prof(), c.ranks, sim.StreamSeed(67, uint64(ci)))
			t.Logf("%s: KS %.4f (critical %.4f, %d colouring draws)", name, d, crit, m)
			if d >= crit {
				t.Errorf("KS distance %.4f >= 99%% critical value %.4f", d, crit)
			}
		})
	}
}

// At untuned Linux's dense 5 ms and 30 ms windows and K ≤ 64, MaxDetourRank
// after Tabulate has the law of colouring. A table built there anyway puts
// the 250 Hz tick's 3 µs detours on a 16–33 µs grid and misses the law by
// a KS distance of about 0.1 to 0.3 (logged); the resolution bound keeps
// those calls on colouring.
func TestUnresolvedCellsColour(t *testing.T) {
	for wi, w := range []sim.Duration{5 * sim.Millisecond, 30 * sim.Millisecond} {
		for _, k := range []int{1, 27, smallRanks} {
			name := fmt.Sprintf("window=%v/K=%d", w, k)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				p, ref := LinuxUntuned(), LinuxUntuned()
				p.Tabulate([]sim.Duration{w}, k)
				if !p.Dense(w) {
					t.Fatalf("%v is not dense", w)
				}
				tab := newTable(LinuxUntuned(), w)
				raw, crit, _ := ksTableCell(tab, LinuxUntuned(), k, sim.StreamSeed(64, uint64(wi)<<16|uint64(k)))
				t.Logf("%s: a table there would read KS %.4f (critical %.4f)", name, raw, crit)
				const n, m = 4000, 4000
				rng, refRNG := sim.NewRNG(sim.StreamSeed(65, uint64(wi)<<16|uint64(k))), sim.NewRNG(sim.StreamSeed(66, uint64(wi)<<16|uint64(k)))
				got, want := make([]float64, n), make([]float64, m)
				sums := make([]sim.Duration, k)
				for i := range got {
					d, _ := MaxDetourRank(rng, p, k, w)
					got[i] = float64(d)
					clear(sums)
					d, _ = colour(refRNG, ref, sums, w)
					want[i] = float64(d)
				}
				if d, crit := ksDistance(got, want), ksCritical99(n, m); d >= crit {
					t.Errorf("KS distance %.4f >= 99%% critical value %.4f", d, crit)
				}
			})
		}
	}
}

// Tabulate over a window list builds, at each window of a prefix of the
// list, the table Tabulate over the prefix alone builds: grid state passes
// only from earlier windows to later ones. CloneTables keeps exactly the
// prefix's tables. A node image prepared for T steps relies on both to
// serve a shorter run (cluster.Image.Steps). The windows below refit the
// grid between some tables and share it between others, and include a
// window that is not dense and repeats.
func TestTabulatePrefix(t *testing.T) {
	windows := []sim.Duration{2 * sim.Millisecond, 10 * sim.Millisecond, sim.Millisecond,
		35 * sim.Millisecond, 3 * sim.Millisecond, 10 * sim.Millisecond, 90 * sim.Millisecond,
		30 * sim.Millisecond, 12 * sim.Millisecond, 250 * sim.Millisecond, 4 * sim.Millisecond}
	for _, c := range []struct {
		name string
		prof func() *Profile
	}{
		{"storm", func() *Profile { return &Profile{Name: "storm", Sources: []Source{facilityStorm()}} }},
		{"linux-tuned+storm", func() *Profile { return LinuxTuned().WithSource(facilityStorm()) }},
	} {
		all := c.prof()
		all.Tabulate(windows, smallRanks)
		if len(all.dense) < 8 {
			t.Fatalf("%s: %d tables over %d windows", c.name, len(all.dense), len(windows))
		}
		for i := range len(windows) + 1 {
			head := c.prof()
			head.Tabulate(windows[:i], smallRanks)
			kept := all.CloneTables(len(head.dense))
			for n, got := range []*Profile{head, kept} {
				if len(got.dense) != len(head.dense) {
					t.Fatalf("%s: CloneTables(%d) keeps %d tables", c.name, len(head.dense), len(got.dense))
				}
				for k := range got.dense {
					g, w := &got.dense[k], &all.dense[k]
					if g.window != w.window || g.h != w.h || g.g0 != w.g0 || !slices.Equal(g.sv, w.sv) {
						t.Errorf("%s, prefix %d (%s): table %d at %v differs from the whole list's at %v",
							c.name, i, [...]string{"Tabulate", "CloneTables"}[n], k, g.window, w.window)
					}
				}
			}
		}
	}
}

// Clones of one profile tabulate concurrently on the grids they share, as a
// facility's node-count views of one image do, and each builds exactly the
// tables a fresh profile builds serially from the same windows: the same
// window, step, g0 and survival, bit for bit. The profile builds tables
// first, so the clones meet grids it fitted and fit others between them.
func TestTabulateClonesConcurrently(t *testing.T) {
	stormy := func() *Profile { return LinuxTuned().WithSource(facilityStorm()) }
	ms := func(x float64) sim.Duration { return sim.Duration(x * float64(sim.Millisecond)) }
	parent := stormy()
	parent.Warm()
	parent.Tabulate([]sim.Duration{ms(10.285591), ms(35.233206)}, smallRanks)
	lists := [][]sim.Duration{
		{ms(10.256741), ms(10.256716), ms(2), ms(88.846432)},
		{ms(35.2332), ms(5.026009), ms(10.304816), ms(17.427284)},
		{ms(45.108292), ms(46.356155), ms(42.807856), sim.Millisecond, ms(10.285591)},
		{ms(250), ms(21.964222), ms(10.314441), ms(10.314316)},
	}
	const clones = 8
	got, _ := par.MapWidthErr(4, clones, func(i int) (*Profile, error) {
		c := parent.CloneTables(0)
		c.Tabulate(lists[i%len(lists)], smallRanks)
		return c, nil
	})
	for i, c := range got {
		want := stormy()
		want.Tabulate(lists[i%len(lists)], smallRanks)
		if c.cache != parent.cache {
			t.Errorf("clone %d does not share the profile's grids", i)
		}
		if len(c.dense) != len(want.dense) {
			t.Fatalf("clone %d: %d tables, a fresh profile %d", i, len(c.dense), len(want.dense))
		}
		for k := range c.dense {
			g, w := &c.dense[k], &want.dense[k]
			same := g.window == w.window && math.Float64bits(g.h) == math.Float64bits(w.h) &&
				math.Float64bits(g.g0) == math.Float64bits(w.g0) && len(g.sv) == len(w.sv)
			for j := 0; same && j < len(g.sv); j++ {
				same = math.Float32bits(g.sv[j]) == math.Float32bits(w.sv[j])
			}
			if !same {
				t.Errorf("clone %d, table %d at %v: differs from a fresh serial build", i, k, g.window)
			}
		}
	}
}

// A profile fits Ψ once per grid step, for itself and its clones, and
// windows whose spans lie in one octave share a step: over 89 windows from
// 2 to 90 ms the profile holds one grid per distinct table step, each step
// once (no table of these windows doubles its step), far fewer than the
// tables, and a clone tabulating the same windows fits none. A profile
// with other sources starts its own grids.
func TestTabulateFitsEachStepOnce(t *testing.T) {
	p := LinuxTuned().WithSource(facilityStorm())
	var windows []sim.Duration
	for w := 2 * sim.Millisecond; w <= 90*sim.Millisecond; w += sim.Millisecond {
		windows = append(windows, w)
	}
	p.Tabulate(windows, smallRanks)
	if len(p.dense) != len(windows) {
		t.Fatalf("%d tables over %d dense windows", len(p.dense), len(windows))
	}
	var steps, fitted []float64
	for i := range p.dense {
		steps = append(steps, p.dense[i].h)
	}
	for _, g := range p.cache.grids {
		fitted = append(fitted, g.h)
	}
	slices.Sort(steps)
	steps = slices.Compact(steps)
	slices.Sort(fitted)
	if !slices.Equal(fitted, slices.Compact(slices.Clone(fitted))) {
		t.Errorf("a step was fitted twice: %v", fitted)
	}
	if !slices.Equal(fitted, steps) {
		t.Errorf("fitted steps %v, the tables' steps %v", fitted, steps)
	}
	if len(steps) > len(windows)/8 {
		t.Errorf("%d windows took %d steps: windows in one octave do not share", len(windows), len(steps))
	}
	c := p.CloneTables(0)
	c.Tabulate(windows, smallRanks)
	if c.cache != p.cache || len(p.cache.grids) != len(steps) {
		t.Errorf("a clone tabulating the same windows fitted %d more grids", len(p.cache.grids)-len(steps))
	}
	for i := range c.dense {
		if c.dense[i].h != p.dense[i].h {
			t.Errorf("clone's table at %v on step %v, the profile's on %v", c.dense[i].window, c.dense[i].h, p.dense[i].h)
		}
	}
	for _, q := range []*Profile{p.WithSource(facilityStorm()), p.WithoutTicks()} {
		if q.cache != nil {
			t.Error("a profile with other sources shares the grids")
		}
	}
}

// Every table's grid step is a power of two with span ≤ h·denseGrid <
// 2·span, span the window's (denseSpan), except where the table doubled
// its step: then the grid at half the step left more than denseTail of the
// mass in its top eighth. The cells cover the law cells' profiles, the
// degenerate sources and windows from 1 µs to 1 s, dense or not.
func TestTableGridStep(t *testing.T) {
	for _, c := range []struct{ span, h float64 }{
		{1024, 1}, {1025, 2}, {2048, 2}, {2047, 2}, {3, 0x1p-8}, {1e6, 1024}, {0x1p-20, 0x1p-30},
	} {
		if h := gridStep(c.span); h != c.h {
			t.Errorf("gridStep(%v) = %v, want %v", c.span, h, c.h)
		}
	}
	profiles := []*Profile{
		LinuxTuned().WithSource(facilityStorm()),
		LinuxUntuned().WithSource(facilityStorm()),
		{Name: "storm", Sources: []Source{facilityStorm()}},
		{Name: "mean0-tail", Sources: []Source{{Name: "m0", Period: sim.Millisecond, CV: 0.5,
			TailProb: 0.05, TailScale: 100 * sim.Microsecond, TailAlpha: 2, TailCap: sim.Millisecond}}},
		{Name: "cv0", Sources: []Source{{Name: "cv0", Period: sim.Millisecond, Mean: 100 * sim.Microsecond}}},
	}
	for _, p := range profiles {
		for w := sim.Microsecond; w <= sim.Second; w = w*3/2 + 7 {
			tab := newTable(p, w)
			span, _ := p.denseSpan(w)
			if !(span > 0) {
				if tab.h != 1 {
					t.Errorf("%s at %v: the atom at 0 on step %v", p.Name, w, tab.h)
				}
				continue
			}
			if frac, _ := math.Frexp(tab.h); frac != 0.5 {
				t.Fatalf("%s at %v: step %v is not a power of two", p.Name, w, tab.h)
			}
			if !(span <= tab.h*denseGrid) {
				t.Fatalf("%s at %v: step %v covers %v of span %v", p.Name, w, tab.h, tab.h*denseGrid, span)
			}
			for h := tab.h; h*denseGrid >= 2*span; h /= 2 {
				var sv [denseGrid]float64
				p.gridAt(h/2).compound(w, &sv)
				if !(sv[denseGrid*7/8] > denseTail) {
					t.Fatalf("%s at %v: step %v for span %v, but step %v kept its top eighth below %v",
						p.Name, w, tab.h, span, h/2, denseTail)
				}
			}
		}
	}
}

// A profile whose core-1 sources include an uncapped Pareto tail gets no
// table, even at a dense window or above exactMaxRanks ranks, and so
// colours there at every K, draw for draw what refColourMax draws: up to
// exactMaxRanks ranks into per-rank sums, above it into sparseMax's table.
// The windows above exactMaxRanks are short enough (at most about 7,000
// events a call) to keep the reference cheap, and long enough to move
// sparseMax's table to the heap.
func TestUncappedTailTakesSparsePaths(t *testing.T) {
	p := LinuxTuned().WithSource(facilityStorm())
	p.Sources[2].TailCap = 0
	windows := []sim.Duration{2 * sim.Millisecond, 30 * sim.Millisecond, 90 * sim.Millisecond}
	p.Tabulate(windows, smallRanks)
	if len(p.dense) != 0 || p.cache != nil {
		t.Fatalf("a profile with an uncapped tail got %d tables", len(p.dense))
	}
	for wi, w := range windows {
		if !p.Dense(w) {
			t.Fatalf("window %v is not dense", w)
		}
		for _, k := range []int{1, smallRanks, 1000, exactMaxRanks} {
			for s := range uint64(4) {
				checkColourMatchesRef(t, sim.StreamSeed(uint64(wi)<<16|uint64(k), s), p, k, w)
			}
		}
	}
	for _, k := range []int{exactMaxRanks + 1, 4096, 131072} {
		for wi, w := range []sim.Duration{10 * sim.Microsecond, 100 * sim.Microsecond} {
			if p.Tabled(w, k) {
				t.Fatalf("K=%d at %v: Tabled holds with an uncapped tail", k, w)
			}
			for s := range uint64(4) {
				checkColourMatchesRef(t, sim.StreamSeed(1<<20|uint64(wi)<<18|uint64(k), s), p, k, w)
			}
		}
	}
}

// Every path draws the same law for the three degenerate sources: a Mean-0
// source with a Pareto tail (its detours are the tail alone), a CV-0 source
// (every detour is exactly Mean) and a Period-0 source (it never fires).
// DetourIn (one rank), colouring into per-rank sums and into sparseMax's
// table, and the table, each at K = 1, estimate P(detour > 0) and the mean
// detour from 40,000 draws; they must meet the exact values
// (1 − e^{−λ(1−a)}, a the chance a detour is 0, and λ·E[X]) within five
// standard errors. A Period-0 source draws 0 on every path.
func TestDegenerateSourcesAgree(t *testing.T) {
	const window = 100 * sim.Microsecond
	cases := []struct {
		name string
		src  Source
	}{
		{"mean0-tail", Source{Name: "m0", Period: sim.Millisecond, CV: 0.5,
			TailProb: 0.05, TailScale: 100 * sim.Microsecond, TailAlpha: 2, TailCap: sim.Millisecond}},
		{"cv0", Source{Name: "cv0", Period: sim.Millisecond, Mean: 100 * sim.Microsecond}},
		{"period0", Source{Name: "p0", Mean: 100 * sim.Microsecond, CV: 0.5,
			TailProb: 0.05, TailScale: 100 * sim.Microsecond, TailAlpha: 2, TailCap: sim.Millisecond}},
	}
	const n = 40_000
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := &Profile{Name: c.name, Sources: []Source{c.src}}
			s := &p.Sources[0]
			wantMean, _, _ := detourLaw(p, window)
			var wantHit float64
			if s.Period > 0 {
				a := 0.0
				if s.baseMean() == 0 {
					a = 1 - s.tailProb()
				}
				wantHit = -math.Expm1(-float64(window) / float64(s.Period) * (1 - a))
			}
			tab := newTable(p, window)
			if math.Abs(tab.g0-wantHit) > 1e-12 {
				t.Errorf("table P(D > 0) = %v, exact %v", tab.g0, wantHit)
			}
			var sums [1]sim.Duration
			paths := []struct {
				name string
				draw func(rng *sim.RNG) sim.Duration
			}{
				{"DetourIn", func(rng *sim.RNG) sim.Duration { return p.DetourIn(rng, 1, window) }},
				{"colour", func(rng *sim.RNG) sim.Duration {
					sums[0] = 0
					d, _ := colour(rng, p, sums[:], window)
					return d
				}},
				{"sparse", func(rng *sim.RNG) sim.Duration { d, _ := sparseMax(rng, p, 1, window); return d }},
				{"table", func(rng *sim.RNG) sim.Duration { d, _ := tab.max(rng, 1); return d }},
			}
			for pi, path := range paths {
				rng := sim.NewRNG(sim.StreamSeed(71, uint64(ci)<<8|uint64(pi)))
				var hits, sum, sum2 float64
				for range n {
					d := float64(path.draw(rng))
					if d > 0 {
						hits++
					}
					sum += d
					sum2 += d * d
				}
				hit, mean := hits/n, sum/n
				if s.Period <= 0 {
					if hits != 0 {
						t.Errorf("%s: a Period-0 source drew %v nonzero detours", path.name, hits)
					}
					continue
				}
				sdMean := math.Sqrt((sum2/n - mean*mean) / n)
				if tol := 5 * math.Sqrt(wantHit*(1-wantHit)/n); math.Abs(hit-wantHit) > tol {
					t.Errorf("%s: P(detour > 0) = %.5f, exact %.5f (tolerance %.5f)", path.name, hit, wantHit, tol)
				}
				if tol := 5 * sdMean; math.Abs(mean-wantMean) > tol {
					t.Errorf("%s: mean detour %.1f ns, exact %.1f (tolerance %.1f)", path.name, mean, wantMean, tol)
				}
			}
		})
	}
}

// checkTable checks a table's invariants: the survival function is finite
// and non-increasing from g0 ≤ 1 down to exactly 0; draws at K ranks are
// finite, at least 0 and non-decreasing in U; the mean and variance meet
// the exact ones within checkMoments' grid tolerance.
func checkTable(t *testing.T, p *Profile, tab *denseTable, ranks int) {
	t.Helper()
	if !(tab.g0 >= 0 && tab.g0 <= 1) || !(tab.h > 0) || math.IsInf(tab.h, 0) {
		t.Fatalf("window %v: g0 %v, h %v", tab.window, tab.g0, tab.h)
	}
	prev := tab.g0
	for i, v := range tab.sv {
		if x := float64(v); !(x >= 0 && x <= prev) {
			t.Fatalf("window %v: survival %v at knot %d after %v", tab.window, x, i, prev)
		}
		prev = float64(v)
	}
	if tab.sv[len(tab.sv)-1] != 0 {
		t.Fatalf("window %v: survival ends at %v, not 0", tab.window, tab.sv[len(tab.sv)-1])
	}
	last := 0.0
	for i := 0; i <= 256; i++ {
		u := float64(i) / 256
		if i == 256 {
			u = 1 - 0x1p-53
		}
		x := tab.quantile(-math.Expm1(math.Log(u) / float64(ranks)))
		if !(x >= last) || math.IsInf(x, 0) {
			t.Fatalf("window %v, K=%d: draw %v at U=%v after %v", tab.window, ranks, x, u, last)
		}
		last = x
	}
	checkMoments(t, p, tab)
}

// FuzzDenseTable builds the table of one random source at a random window
// by itself, and through Tabulate beside a second window up to twice as
// long (the two may share a grid), and checks every table with
// checkTable. Tabulate must attach a table exactly at the windows Tabled
// holds at for the fuzzed rank count, and none for an uncapped tail; up to
// exactMaxRanks ranks only at a dense window or where a call expects
// tableEvents events, and above it at any window; and a table on the step
// its window's span gives resolves that rank count. Periods and windows are folded into
// [0, 1 s] and [1 µs, 1 s] with λ ≤ 1,000, means and tail scales into
// [0, 10 ms], CVs into [0, 4], tail indices into (0, 5] and caps into
// [0, 50 ms] (0 is uncapped).
func FuzzDenseTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, period, mean uint32, cv, tailProb uint16, tailScale uint32,
		tailAlpha uint16, tailCap, window uint32, spread uint16, k uint32) {
		s := Source{Name: "fuzz",
			Period:    sim.Duration(period % 1_000_000_001),
			Mean:      sim.Duration(mean % 10_000_001),
			CV:        float64(cv%4001) / 1000,
			TailProb:  float64(tailProb%1001) / 1000,
			TailScale: sim.Duration(tailScale % 10_000_001),
			TailAlpha: float64(tailAlpha%5000+1) / 1000,
			TailCap:   sim.Duration(tailCap % 50_000_001),
		}
		w := sim.Duration(window%1_000_000_000) + sim.Microsecond
		w2 := w + w*sim.Duration(spread%1001)/1000
		if s.Period > 0 && w2 > 1000*s.Period {
			s.Period = w2 / 1000
		}
		ranks := 1 + int(k%131072)
		p := &Profile{Name: "fuzz", Sources: []Source{s}}
		p.Tabulate([]sim.Duration{w, w2}, ranks)
		if !p.tabulable() {
			if len(p.dense) != 0 {
				t.Fatal("a profile with an uncapped tail got a table")
			}
			return
		}
		for _, x := range []sim.Duration{w, w2} {
			tab := p.denseAt(x)
			if got, want := tab != nil, p.Tabled(x, ranks); got != want {
				t.Fatalf("table attached %v at window %v, K=%d, where Tabled is %v", got, x, ranks, want)
			}
			if tab == nil {
				continue
			}
			if !p.Dense(x) && ranks <= exactMaxRanks && float64(ranks)*p.events(x) < tableEvents {
				t.Fatalf("a table at sparse window %v for K=%d, %.1f events per call", x, ranks, float64(ranks)*p.events(x))
			}
			if span, _ := p.denseSpan(x); span > 0 && tab.h == gridStep(span) && !tab.resolves(ranks) {
				t.Fatalf("the table at %v on step %v does not resolve K=%d", x, tab.h, ranks)
			}
		}
		for i := range p.dense {
			checkTable(t, p, &p.dense[i], ranks)
		}
		checkTable(t, p, newTable(p, w), ranks)
	})
}

// BenchmarkDenseTable times one table build at the facility's windows, on
// LinuxTuned with the facility storm, and /tabulate-pair a Tabulate call
// for two windows 0.3% apart (a facility image's typical pair), whose
// second table shares the first one's grid.
func BenchmarkDenseTable(b *testing.B) {
	p := LinuxTuned().WithSource(facilityStorm())
	for _, w := range []sim.Duration{2 * sim.Millisecond, 10 * sim.Millisecond, 35 * sim.Millisecond, 90 * sim.Millisecond} {
		b.Run(fmt.Sprintf("window=%v", w), func(b *testing.B) {
			for b.Loop() {
				p.cache = nil
				t := denseTable{window: w}
				t.build(p)
			}
		})
	}
	b.Run("tabulate-pair", func(b *testing.B) {
		windows := []sim.Duration{10_304_716, 10_275_916}
		for b.Loop() {
			p.dense, p.cache = nil, nil
			p.Tabulate(windows, smallRanks)
		}
	})
}

// BenchmarkTabulateViews times the tables of one facility node layout: a
// warm LinuxTuned profile with the facility storm, tabulated at the step
// windows of the layout's image (10.29 ms, the heap phase's step and the
// steady one) and then, each on a clone, at those of four node-count views
// of it, windows from one seed-1 facility stream. Every iteration starts
// from a fresh clone of the warm profile, as a prepared image does.
func BenchmarkTabulateViews(b *testing.B) {
	ms := func(x float64) sim.Duration { return sim.Duration(x * float64(sim.Millisecond)) }
	image := []sim.Duration{ms(10.285591), ms(10.285516)}
	views := [][]sim.Duration{
		{ms(10.256741), ms(10.256716)},
		{ms(10.304816), ms(10.304716)},
		{ms(10.275966), ms(10.275916)},
		{ms(10.314441), ms(10.314316)},
	}
	warm := LinuxTuned().WithSource(facilityStorm())
	warm.Warm()
	for b.Loop() {
		img := warm.CloneTables(0)
		img.Tabulate(image, smallRanks)
		for _, w := range views {
			img.CloneTables(0).Tabulate(w, smallRanks)
		}
	}
}
