package sim

import (
	"math"
	"testing"
)

// poissonPMF is the exact Poisson(lambda) probability of k, through logs so
// that it stays finite at large means.
func poissonPMF(lambda float64, k int) float64 {
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(-lambda + float64(k)*math.Log(lambda) - lg)
}

// chiSquareCritical999 is the 99.9% point of the chi-square distribution
// with df degrees of freedom, by the Wilson–Hilferty cube approximation
// (relative error well under 1% for df >= 10).
func chiSquareCritical999(df int) float64 {
	const z999 = 3.090232306167813
	v := 2 / (9 * float64(df))
	c := 1 - v + z999*math.Sqrt(v)
	return float64(df) * c * c * c
}

// poissonChiSquare draws n counts and returns Pearson's chi-square statistic
// against the exact pmf and its degrees of freedom. Neighbouring counts are
// pooled into bins of expected size >= 20, and the two tails fold into the
// end bins.
func poissonChiSquare(draw func() int, lambda float64, n int) (chi2 float64, df int) {
	sd := math.Sqrt(lambda)
	lo := max(0, int(lambda-12*sd))
	hi := int(lambda+12*sd) + 1
	observed := make([]float64, hi-lo+1)
	for range n {
		k := min(max(draw(), lo), hi) - lo
		observed[k]++
	}
	// Bin edges over [lo, hi], each bin's expected count summed from the
	// pmf; the first bin also takes P(K < lo) and the last P(K > hi).
	var exp, obs float64
	below := 1.0
	for k := lo; k <= hi; k++ {
		below -= poissonPMF(lambda, k)
	}
	exp = max(below, 0) * float64(n) // both tails, ~0 at 12 sd
	for k := lo; k <= hi; k++ {
		exp += poissonPMF(lambda, k) * float64(n)
		obs += observed[k-lo]
		if exp >= 20 && k < hi {
			rest := 0.0
			for j := k + 1; j <= hi; j++ {
				rest += poissonPMF(lambda, j) * float64(n)
			}
			if rest < 20 {
				continue // fold the short remainder into this bin
			}
			chi2 += (obs - exp) * (obs - exp) / exp
			df++
			exp, obs = 0, 0
		}
	}
	chi2 += (obs - exp) * (obs - exp) / exp
	return chi2, df // bins − 1
}

// PTRS draws the exact Poisson law above the Knuth cutoff: over 10^6 draws
// per mean, Pearson's chi-square against the pmf stays below its 99.9%
// point, and the sample mean and variance sit within four standard errors of
// lambda.
func TestPoissonPTRSMatchesPMF(t *testing.T) {
	const n = 1_000_000
	for i, lambda := range []float64{30.5, 100, 1000, 1e5} {
		r := NewRNG(StreamSeed(61, uint64(i)))
		var sum, sumSq float64
		chi2, df := poissonChiSquare(func() int {
			k := r.Poisson(lambda)
			sum += float64(k)
			sumSq += float64(k) * float64(k)
			return k
		}, lambda, n)
		crit := chiSquareCritical999(df)
		mean := sum / n
		variance := (sumSq - n*mean*mean) / (n - 1)
		t.Logf("λ=%g: chi-square %.1f on %d df (99.9%% point %.1f), mean %.3f, variance %.3f",
			lambda, chi2, df, crit, mean, variance)
		if chi2 >= crit {
			t.Errorf("λ=%g: chi-square %.1f >= 99.9%% point %.1f on %d df", lambda, chi2, crit, df)
		}
		// Var(mean) = λ/n; Var(s²) ≈ (μ4 − σ⁴)/n = (λ + 2λ²)/n.
		if se := math.Sqrt(lambda / n); math.Abs(mean-lambda) > 4*se {
			t.Errorf("λ=%g: mean %.4f is %.1f standard errors off", lambda, mean, math.Abs(mean-lambda)/se)
		}
		if se := math.Sqrt((lambda + 2*lambda*lambda) / n); math.Abs(variance-lambda) > 4*se {
			t.Errorf("λ=%g: variance %.4f is %.1f standard errors off", lambda, variance, math.Abs(variance-lambda)/se)
		}
	}
}

// PoissonExp ignores its exp(-λ) argument above the cutoff and draws what
// Poisson draws there.
func TestPoissonExpMatchesPoissonAboveCutoff(t *testing.T) {
	for _, lambda := range []float64{PoissonKnuthCutoff + 1e-9, 30.5, 300, 1e6} {
		r, twin := NewRNG(7), NewRNG(7)
		for i := 0; i < 1000; i++ {
			if got, want := r.PoissonExp(lambda, 0), twin.Poisson(lambda); got != want {
				t.Fatalf("λ=%g draw %d: PoissonExp %d, Poisson %d", lambda, i, got, want)
			}
		}
		if r.Uint64() != twin.Uint64() {
			t.Fatalf("λ=%g: generators diverged", lambda)
		}
	}
}

// Poisson at and below the cutoff is Knuth's product loop, draw for draw.
func TestPoissonKnuthBelowCutoff(t *testing.T) {
	for _, lambda := range []float64{0.01, 1, 12, PoissonKnuthCutoff} {
		r, ref := NewRNG(8), NewRNG(8)
		for i := 0; i < 20000; i++ {
			if got, want := r.Poisson(lambda), refPoissonKnuth(ref, math.Exp(-lambda)); got != want {
				t.Fatalf("λ=%g draw %d: Poisson %d, product loop %d", lambda, i, got, want)
			}
		}
		if r.Uint64() != ref.Uint64() {
			t.Fatalf("λ=%g: generators diverged", lambda)
		}
	}
}

// Uint64n is the high word of Uint64()·n, and it redraws exactly when the
// low word falls below 2^64 mod n, the values that would bias the result.
func TestUint64nLemire(t *testing.T) {
	const n = 3 // 2^64 mod 3 = 1: only a low word of 0 is rejected
	// Uint64() = ⌈2^64/3⌉ gives Uint64()·3 = 2^64 + 2: high word 1, low 2.
	if got := rngEmitting(1<<64/3 + 1).Uint64n(n); got != 1 {
		t.Fatalf("Uint64n(3) = %d, want 1", got)
	}
	// Uint64() = 0 gives low word 0 < 1: rejected, so the result comes
	// from the next draw.
	r := rngEmitting(0)
	next := *r
	next.Uint64()
	want := next.Uint64n(n)
	if got := r.Uint64n(n); got != want || r.state != next.state {
		t.Fatalf("Uint64n(3) after a rejected draw = %d, want the next draw's %d", got, want)
	}
	// Powers of two take exactly one draw: the top bits.
	r, twin := NewRNG(10), NewRNG(10)
	for i := 0; i < 1000; i++ {
		if got, want := r.Uint64n(1024), twin.Uint64()>>54; got != want {
			t.Fatalf("Uint64n(1024) = %d, want top 10 bits %d", got, want)
		}
	}
	// Every value is in range, and a small range is hit evenly.
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[r.Uint64n(7)]++
	}
	for v, c := range counts {
		if c < 9500 || c > 10500 {
			t.Fatalf("Uint64n(7) drew %d %d times of 70000", v, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	r.Uint64n(0)
}
