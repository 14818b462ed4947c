// Fixture for the parshare analyzer: capturing per-job simulation state
// across a par closure must be flagged; deriving it inside the job
// must not.
package parshare

import (
	"mklite/internal/par"
	"mklite/internal/sim"
)

func badSharedRNG(seed uint64) []float64 {
	rng := sim.NewRNG(seed)
	out, _ := par.MapWidthErr(0, 8, func(i int) (float64, error) {
		return rng.Float64(), nil // want `par closure captures \*sim\.RNG "rng" from an enclosing scope`
	})
	return out
}

func badSharedValue(seed uint64) []uint64 {
	var rng sim.RNG
	_ = rng
	out, _ := par.MapWidthErr(0, 4, func(i int) (uint64, error) {
		r := &rng // want `par closure captures sim\.RNG "rng" from an enclosing scope`
		return r.Uint64(), nil
	})
	return out
}

func badEngine(eng *sim.Engine) []int {
	out, _ := par.MapWidthErr(2, 4, func(i int) (int, error) {
		eng.RunUntil(sim.Time(i)) // want `par closure captures \*sim\.Engine "eng" from an enclosing scope`
		return i, nil
	})
	return out
}

func badNestedClosure(seed uint64) []float64 {
	rng := sim.NewRNG(seed)
	out, _ := par.MapWidthErr(0, 8, func(i int) (float64, error) {
		f := func() float64 {
			return rng.Float64() // want `par closure captures \*sim\.RNG "rng" from an enclosing scope`
		}
		return f(), nil
	})
	return out
}

func goodPerJobStream(seed uint64) []float64 {
	out, _ := par.MapWidthErr(0, 8, func(i int) (float64, error) {
		rng := sim.NewRNG(sim.StreamSeed(seed, uint64(i)))
		return rng.Float64(), nil
	})
	return out
}

func goodPlainCapture(scale float64) []float64 {
	// Capturing immutable non-sim state is fine; only per-job
	// simulation state is guarded.
	out, _ := par.MapWidthErr(0, 8, func(i int) (float64, error) {
		return scale * float64(i), nil
	})
	return out
}

func goodOutsideClosure(seed uint64) float64 {
	// Using an RNG outside any par closure is not parshare's business.
	rng := sim.NewRNG(seed)
	return rng.Float64()
}
