// Package metrics is the simulator's derived-metrics layer: per-run
// registries of log-bucketed latency histograms, per-rank distributions,
// per-phase virtual-time accounting and gauges, fed from the trace.Sink
// emission sites through the trace.Observer hook.
//
// The contract matches internal/trace exactly, because a registry rides the
// same sink:
//
//  1. Metrics are passive. Recording never draws randomness, never feeds
//     back into the model; run digests are byte-identical with metrics off
//     or on (determinism_test.go).
//  2. Registries are per-run state — created next to the run's seed, never
//     package-global, never shared across internal/par worker closures.
//     mklint's parshare analyzer enforces both.
//  3. Off is free. The nil *Registry records nothing, and every emission
//     site reaches it through the sink's one pointer test.
//
// Histograms use HDR-style log-linear bucketing (see Histogram) so a
// nanosecond-resolution detour and a millisecond daemon tail fit the same
// fixed-resolution structure — the paper's FWQ story is exactly such a
// spread. All quantiles derive from the internal/stats Rank rule, so an
// mkobs report and a figure table can never disagree on the same data.
package metrics

import (
	"math"
	"math/bits"

	"mklite/internal/stats"
)

// subBits fixes the histogram resolution: 1<<subBits sub-buckets per
// power-of-two octave, i.e. a worst-case relative error of 1/2^subBits
// (~3%) — ample for latency percentiles, tiny enough that the full int64
// range needs fewer than 2k buckets.
const (
	subBits    = 5
	subBuckets = 1 << subBits
)

// bucketIndex maps a non-negative value to its bucket. Values below
// subBuckets*2 get exact width-1 buckets; above that, each octave [2^e,
// 2^e+1) splits into subBuckets equal slices.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - subBits - 1
	return exp<<subBits + int(u>>uint(exp))
}

// bucketBounds is bucketIndex's inverse: the half-open value range [lo, hi)
// of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i < subBuckets {
		return int64(i), int64(i) + 1
	}
	exp := uint(i/subBuckets - 1)
	sub := int64(i) - int64(exp)*subBuckets
	return sub << exp, (sub + 1) << exp
}

// Histogram is a log-linear latency histogram: fixed ~3% relative
// resolution across the whole non-negative int64 range, constant-time
// recording, exact count/sum/min/max. Like every metrics type it is
// per-run, single-goroutine state; the nil receiver records nothing and
// reports an empty distribution.
type Histogram struct {
	counts []int64
	total  int64
	sum    int64
	min    int64
	max    int64
}

// Record adds one sample. Negative values clamp to zero — virtual-time
// durations are never negative, so a negative sample is already a caller
// bug upstream of the histogram.
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n identical samples (n <= 0 records nothing).
func (h *Histogram) RecordN(v int64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	if i >= len(h.counts) {
		// append amortises the growth: a histogram fed rising values
		// reallocates O(log n) times, not once per new top bucket.
		h.counts = append(h.counts, make([]int64, i+1-len(h.counts))...)
	}
	h.counts[i] += n
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if h.total == 0 || v > h.max {
		h.max = v
	}
	h.total += n
	h.sum += v * n
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total
}

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil || h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil || h.total == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Percentile returns the p-th percentile (0..100) under the shared
// stats.Rank rule, with samples inside a bucket spread evenly from its
// lower bound (stats.BucketPercentile), clamped into the exact observed
// [Min, Max]. An empty histogram returns 0.
func (h *Histogram) Percentile(p float64) float64 {
	if h == nil || h.total == 0 {
		return 0
	}
	v := stats.BucketPercentile(h.total, p, len(h.counts),
		func(i int) int64 { return h.counts[i] },
		func(i int) (float64, float64) {
			lo, hi := bucketBounds(i)
			return float64(lo), float64(hi)
		})
	return math.Min(math.Max(v, float64(h.min)), float64(h.max))
}

// Merge adds every sample of o into h. Merging is associative and
// commutative — bucket counts, totals and sums are plain additions, min/max
// plain extrema — so index-ordered par merging yields the same histogram as
// any other order (TestMergeAssociative pins this).
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.total == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]int64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.total == 0 || o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	h.sum += o.sum
}

// Buckets calls fn for every non-empty bucket in value order.
func (h *Histogram) Buckets(fn func(lo, hi, count int64)) {
	if h == nil {
		return
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		fn(lo, hi, c)
	}
}
