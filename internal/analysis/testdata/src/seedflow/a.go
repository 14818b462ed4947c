// Fixture for the seedflow analyzer: seed-derivation hygiene. Ad-hoc seed
// arithmetic, seed reuse across stream constructions, seeds captured into
// par closures, and one RNG drawn from in two sibling loops are flagged;
// StreamSeed-per-index, Split-per-phase, and reassigned seeds are clean.
package seedflow

import (
	"mklite/internal/par"
	"mklite/internal/sim"
)

// --- rule 1: ad-hoc seed arithmetic ---

func badArith(base uint64, i int) *sim.RNG {
	return sim.NewRNG(base + uint64(i)*2654435761) // want `ad-hoc seed arithmetic .* in a seed position of sim\.NewRNG`
}

func badXorMix(base, kind uint64) uint64 {
	return sim.StreamSeed(base^kind, 3) // want `ad-hoc seed arithmetic .* in a seed position of sim\.StreamSeed`
}

// newWorker consumes its parameter as a seed, so calls to it are seed
// positions too (intra-package fact propagation).
func newWorker(seed uint64) *sim.RNG {
	return sim.NewRNG(seed)
}

func badChained(base uint64, i int) *sim.RNG {
	return newWorker(base ^ uint64(i)) // want `ad-hoc seed arithmetic .* in a seed position of newWorker`
}

// --- rule 2: seed reuse ---

func badTwice(seed uint64) (a, b *sim.RNG) {
	a = sim.NewRNG(seed)
	b = sim.NewRNG(seed) // want `seed "seed" already constructs a stream`
	return a, b
}

func badDirectAndBase(seed uint64) *sim.RNG {
	derived := sim.StreamSeed(seed, 1)
	r := sim.NewRNG(seed) // want `used both as a sim\.StreamSeed base .* the streams overlap`
	_ = derived
	return r
}

func badDupStream(seed uint64) (a, b *sim.RNG) {
	a = sim.NewRNG(sim.StreamSeed(seed, 7))
	b = sim.NewRNG(sim.StreamSeed(seed, 7)) // want `sim\.StreamSeed\(seed, 7\) repeats the derivation`
	return a, b
}

// --- rule 3: seed captured into a par closure ---

func badParSeed(seed uint64) []float64 {
	out, _ := par.MapWidthErr(0, 4, func(i int) (float64, error) {
		r := sim.NewRNG(seed) // want `seed "seed" is consumed inside a par closure`
		return r.Float64(), nil
	})
	return out
}

// --- rule 4: one RNG drawn from in two sibling loops ---

func badTwoPhases(seed uint64) float64 {
	rng := sim.NewRNG(seed)
	var warm, meas float64
	for i := 0; i < 8; i++ {
		warm += rng.Float64()
	}
	for i := 0; i < 8; i++ {
		meas += rng.Float64() // want `RNG "rng" is drawn from in a second loop`
	}
	return warm + meas
}

// drawOne draws from its parameter, so handing an RNG to it counts as a
// draw at the call site (fact propagation again).
func drawOne(r *sim.RNG) float64 {
	return r.Float64()
}

func badHelperPhases(seed uint64) float64 {
	rng := sim.NewRNG(seed)
	var total float64
	for i := 0; i < 4; i++ {
		total += drawOne(rng)
	}
	for i := 0; i < 4; i++ {
		total += drawOne(rng) // want `RNG "rng" is drawn from in a second loop`
	}
	return total
}

// --- sanctioned patterns ---

func goodPerJob(seed uint64) []float64 {
	out, _ := par.MapWidthErr(0, 4, func(i int) (float64, error) {
		r := sim.NewRNG(sim.StreamSeed(seed, uint64(i)))
		return r.Float64(), nil
	})
	return out
}

func goodSplitPhases(seed uint64) float64 {
	rng := sim.NewRNG(seed)
	warm := rng.Split()
	meas := rng.Split()
	var total float64
	for i := 0; i < 8; i++ {
		total += warm.Float64()
	}
	for i := 0; i < 8; i++ {
		total += meas.Float64()
	}
	return total
}

func goodReseeded(seed uint64, attempts int) float64 {
	var total float64
	for a := 0; a < attempts; a++ {
		// Reassignment makes each iteration's seed a genuinely new
		// value, so base-and-direct use of the variable is fine.
		seed = sim.StreamSeed(seed, uint64(a))
		rng := sim.NewRNG(seed)
		total += rng.Float64()
	}
	return total
}

func goodDistinctStreams(seed uint64) (a, b *sim.RNG) {
	a = sim.NewRNG(sim.StreamSeed(seed, 0))
	b = sim.NewRNG(sim.StreamSeed(seed, 1))
	return a, b
}
