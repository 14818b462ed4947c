package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("step %d: streams diverged: %d != %d", i, x, y)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values in 100 draws", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s1 := r.Split()
	s2 := r.Split()
	// The two derived streams must differ from each other.
	diff := false
	for i := 0; i < 64; i++ {
		if s1.Uint64() != s2.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("split streams are identical")
	}
}

func TestRNGSplitN(t *testing.T) {
	r := NewRNG(9)
	streams := r.SplitN(8)
	if len(streams) != 8 {
		t.Fatalf("SplitN(8) returned %d streams", len(streams))
	}
	seen := map[uint64]bool{}
	for _, s := range streams {
		v := s.Uint64()
		if seen[v] {
			t.Fatalf("duplicate first draw %d across split streams", v)
		}
		seen[v] = true
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

// rngEmitting returns a generator whose next Uint64 is v, by inverting the
// SplitMix64 output function (each xorshift and odd multiply is a bijection
// on 64-bit words).
func rngEmitting(v uint64) *RNG {
	unshift := func(y uint64, k uint) uint64 {
		z := y
		for i := uint(0); i < 64; i += k {
			z = y ^ (z >> k)
		}
		return z
	}
	// inverse of an odd a mod 2^64 by Newton's iteration, which doubles
	// the correct low bits each round.
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
	return &RNG{state: z - splitMixGamma}
}

// Float64 is the top 53 bits of Uint64 scaled by 2^-53, exactly. The noise
// layer's exact max-of-K path depends on it: it decides Float64() <= l from
// the integer mantissa, as Uint64()>>11 <= uint64(l·2^53). Pinned here on
// mantissas either side of that threshold for l = exp(-λ) over the range of
// Poisson means the noise sources take, so a change to Float64 fails a test
// instead of silently changing noise draws.
func TestFloat64MantissaContract(t *testing.T) {
	a, b := NewRNG(8), NewRNG(8)
	for i := 0; i < 10000; i++ {
		if got, want := a.Float64(), float64(b.Uint64()>>11)/(1<<53); got != want {
			t.Fatalf("draw %d: Float64 %v, want float64(Uint64()>>11)/2^53 = %v", i, got, want)
		}
	}
	if got := rngEmitting(0xdeadbeefcafef00d).Uint64(); got != 0xdeadbeefcafef00d {
		t.Fatalf("rngEmitting: next draw %#x", got)
	}
	const top = 1<<53 - 1 // largest mantissa
	for _, lambda := range []float64{1e-17, 1e-9, 0.01, 1, 30} {
		l := math.Exp(-lambda)
		th := uint64(l * (1 << 53))
		for _, m := range []uint64{0, 1, th - 1, th, th + 1, th + 2, top} {
			if m > top {
				continue // l rounds to 1: every mantissa is below the threshold
			}
			for _, low := range []uint64{0, 1<<11 - 1} {
				v := m<<11 | low
				got := rngEmitting(v).Float64() <= l
				if want := m <= th; got != want {
					t.Errorf("λ=%g mantissa %d (threshold %d): Float64() <= exp(-λ) is %v, mantissa test says %v",
						lambda, m, th, got, want)
				}
			}
		}
	}
}

// refPoissonKnuth is Knuth's product method as PoissonExp ran it before
// its first step was split off into PoissonKnuthFrom.
func refPoissonKnuth(r *RNG, l float64) int {
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// PoissonExp's Knuth branch, first uniform plus PoissonKnuthFrom, makes the
// draws of the single product loop: same counts, same generator state.
func TestPoissonKnuthFromMatchesProductLoop(t *testing.T) {
	for _, lambda := range []float64{1e-9, 0.01, 0.5, 1, 4, 30} {
		l := math.Exp(-lambda)
		r, ref := NewRNG(9), NewRNG(9)
		for i := 0; i < 20000; i++ {
			if got, want := r.PoissonExp(lambda, l), refPoissonKnuth(ref, l); got != want {
				t.Fatalf("λ=%g draw %d: PoissonExp %d, product loop %d", lambda, i, got, want)
			}
		}
		if r.Uint64() != ref.Uint64() {
			t.Fatalf("λ=%g: generators diverged", lambda)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[r.Intn(7)]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("bucket %d has suspicious count %d (expect ~10000)", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(-1) did not panic")
		}
	}()
	NewRNG(1).Int63n(-1)
}

func TestBoolEdges(t *testing.T) {
	r := NewRNG(6)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(8)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate %v", frac)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(10)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential sample negative: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.02 {
		t.Fatalf("exponential mean %v too far from 1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestParetoBounds(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(2.0, 1.5)
		if v < 2.0 {
			t.Fatalf("Pareto(2, 1.5) sample below xm: %v", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	// A Pareto with alpha=1.1 should produce occasional samples far above
	// xm; verify at least one 10x excursion in a modest sample.
	r := NewRNG(14)
	saw := false
	for i := 0; i < 50000; i++ {
		if r.Pareto(1, 1.1) > 10 {
			saw = true
			break
		}
	}
	if !saw {
		t.Fatal("no heavy-tail excursion observed in 50000 Pareto draws")
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		p := NewRNG(seed).Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := NewRNG(15)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: sum %d != %d", got, sum)
	}
}

func TestStreamSeedMatchesSplit(t *testing.T) {
	// StreamSeed(base, i) must equal the seed of the i-th Split of a
	// generator seeded with base — the O(1) shortcut and the explicit
	// splitting must define the same stream family.
	for _, base := range []uint64{0, 1, 2, 42, 0xdeadbeef} {
		r := NewRNG(base)
		for i := uint64(0); i < 20; i++ {
			want := r.Split().state
			if got := StreamSeed(base, i); got != want {
				t.Fatalf("StreamSeed(%d, %d) = %#x, want %#x", base, i, got, want)
			}
		}
	}
}

func TestStreamSeedDecorrelatesNearbyBases(t *testing.T) {
	// The reason StreamSeed replaces Seed+i rep derivation: consecutive
	// base seeds must not share any stream seeds across small indices.
	seen := map[uint64]string{}
	for base := uint64(1); base <= 8; base++ {
		for i := uint64(0); i < 8; i++ {
			s := StreamSeed(base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("StreamSeed(%d, %d) collides with %s", base, i, prev)
			}
			seen[s] = fmt.Sprintf("(%d, %d)", base, i)
		}
	}
}
