// Fixture for the floatorder analyzer: compound float accumulation inside
// an unordered iteration context (map range, channel range, par closure)
// is flagged; slice ranges, per-key updates, and iteration-local
// accumulators are clean.
package floatorder

import "mklite/internal/par"

func badMapSum(weights map[string]float64) float64 {
	var total float64
	for _, w := range weights {
		total += w // want `float accumulation into total inside a map range`
	}
	return total
}

func badMapSub(budget map[int]float64) float64 {
	remaining := 1.0
	for _, b := range budget {
		remaining -= b // want `float accumulation into remaining inside a map range`
	}
	return remaining
}

func badChanSum(ch chan float64) float64 {
	sum := 0.0
	for v := range ch {
		sum += v // want `float accumulation into sum inside a channel range`
	}
	return sum
}

func badParSum(n int) float64 {
	var total float64
	par.MapWidthErr(0, n, func(i int) (int, error) {
		total += float64(i) // want `float accumulation into total inside a par closure`
		return i, nil
	})
	return total
}

// --- sanctioned patterns ---

func goodSliceSum(xs []float64) float64 {
	// Slice iteration is index-ordered; sequential reduction is the fix
	// floatorder points at.
	var total float64
	for _, x := range xs {
		total += x
	}
	return total
}

func goodParThenReduce(n int) float64 {
	// Collect per-job values index-ordered (par results are), reduce
	// sequentially.
	parts, _ := par.MapWidthErr(0, n, func(i int) (float64, error) { return float64(i), nil })
	var total float64
	for _, p := range parts {
		total += p
	}
	return total
}

func goodIndexed(m, upd map[string]float64) {
	// Per-key update: each key is touched exactly once, no ordering.
	for k, v := range upd {
		m[k] += v
	}
}

func goodLocal(weights map[string]float64) float64 {
	// The accumulator dies with the iteration body; nothing escapes.
	var last float64
	for _, w := range weights {
		scaled := 0.0
		scaled += w * 2
		last = scaled
	}
	return last
}

func goodIntCount(m map[string]int) int {
	// Integer addition is associative; only floats are order-sensitive.
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
