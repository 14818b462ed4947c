// Package sim provides the deterministic discrete-event simulation core that
// every other subsystem of mklite is built on: a virtual clock, an event
// queue, a cooperative process abstraction, and a splittable random number
// generator.
//
// All randomness in a simulation run must come from RNG values derived from
// the run seed; the engine itself never consults wall-clock time or global
// random state, so a run is a pure function of (model, seed).
package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo random number generator based
// on SplitMix64. It is not safe for concurrent use; derive per-goroutine
// streams with Split instead of sharing one RNG.
//
// SplitMix64 passes BigCrush, has a full 2^64 period, and — unlike
// math/rand's default source — can be forked into statistically independent
// streams, which the cluster harness uses to give every rank its own stream
// while keeping runs reproducible.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators constructed
// from the same seed produce identical sequences.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// golden gamma constant used by SplitMix64 to advance the state.
const splitMixGamma = 0x9e3779b97f4a7c15

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += splitMixGamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split returns a new generator whose stream is statistically independent of
// the receiver's. The receiver advances by one step.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64()}
}

// StreamSeed derives the seed of sub-stream `stream` of `base`: the
// stream-th split a generator seeded with base would hand out, computed in
// O(1) by evaluating the SplitMix64 output function at that position. It is
// the sanctioned way to give each element of an indexed family of jobs
// (repetitions of an experiment, jobs of a par.MapWidthErr) its own
// independent stream. Unlike naive `base+i` derivation, two families with
// nearby base seeds share no stream seeds: the full 64-bit mix decorrelates
// them.
//
// StreamSeed(base, i) is the seed of the (i+1)-th Split of NewRNG(base).
func StreamSeed(base, stream uint64) uint64 {
	z := base + (stream+1)*splitMixGamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1): the top 53 bits of the next
// Uint64 scaled by 2^-53, so Float64() == float64(Uint64()>>11)/2^53
// exactly (both steps are exact in float64), so a caller may compare
// Float64() <= l on the integer mantissa, as Uint64()>>11 <= uint64(l·2^53)
// (TestFloat64MantissaContract).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uint64n returns a uniform value in [0, n) with no bias, by Lemire's
// multiply-shift with rejection ("Fast random integer generation in an
// interval", ACM TOMACS 29(1), 2019): the high word of Uint64()·n, redrawn
// while the low word falls in the 2^64 mod n values that would favour some
// results. A power-of-two n never redraws. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		for thresh := -n % n; lo < thresh; {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpFloat64 returns an exponentially distributed value with rate 1
// (mean 1), via inverse transform sampling.
func (r *RNG) ExpFloat64() float64 {
	// 1-Float64() is in (0,1], so the log argument is never zero.
	return -math.Log(1 - r.Float64())
}

// NormFloat64 returns a standard normal value using the Marsaglia polar
// method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Pareto returns a Pareto(xm, alpha) distributed value. Heavy-tailed noise
// detours (rare long daemon activity) are drawn from this family.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	return xm / math.Pow(1-r.Float64(), 1/alpha)
}

// PoissonKnuthCutoff is the mean above which Poisson and PoissonExp switch
// from Knuth's product method to PTRS.
const PoissonKnuthCutoff = 30

// Poisson returns a Poisson(lambda) variate: Knuth's product method for
// small means, PTRS above PoissonKnuthCutoff. Both are exact. Occurrence
// counts in a window (noise events, lost messages, stalled offloads) are
// drawn from this family.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > PoissonKnuthCutoff {
		return r.poissonPTRS(lambda)
	}
	return r.PoissonExp(lambda, math.Exp(-lambda))
}

// PoissonExp is Poisson with exp(-lambda) supplied by the caller, for hot
// paths that draw repeatedly at the same mean (the noise sources draw once
// per source per timestep at a window that rarely changes, and math.Exp was
// a measurable share of the whole harness). The uniform draw sequence is
// identical to Poisson's for every lambda, so switching a call site between
// the two cannot perturb a run. expNegLambda is only consulted on the
// Knuth branch (lambda <= 30); pass anything (0 is fine) above the cutoff.
func (r *RNG) PoissonExp(lambda, expNegLambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > PoissonKnuthCutoff {
		return r.poissonPTRS(lambda)
	}
	u := r.Float64()
	if u <= expNegLambda {
		return 0
	}
	return r.PoissonKnuthFrom(u, expNegLambda)
}

// poissonPTRS draws an exact Poisson(lambda) variate for lambda >= 10 by
// Hörmann's transformed rejection with squeeze (PTRS; "The transformed
// rejection method for generating Poisson random variables", Insurance:
// Mathematics and Economics 12, 1993). Each attempt takes two uniforms;
// most are settled by the squeeze without a log or lgamma. The candidate is
// kept as a float until it is accepted, so a uniform at the edge of its
// range (us = 0 makes it -Inf) is rejected without an overflowing integer
// conversion.
func (r *RNG) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		invAlpha := 1.1239 + 1.1328/(b-3.4)
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= -lambda+k*math.Log(lambda)-lg {
			return int(k)
		}
	}
}

// PoissonKnuthFrom finishes a Knuth's-product Poisson draw whose first
// uniform u was above expNegLambda (so the count is at least 1): it keeps
// multiplying uniforms into the product until it drops to expNegLambda and
// returns the count. PoissonExp's Knuth branch is exactly one Float64 and,
// when it exceeds expNegLambda, this call, so a caller that settles the
// common zero count from the first uniform itself makes PoissonExp's draws.
func (r *RNG) PoissonKnuthFrom(u, expNegLambda float64) int {
	k := 1
	for p := u * r.Float64(); p > expNegLambda; p *= r.Float64() {
		k++
	}
	return k
}
