// Package stats provides the small statistical and tabulation toolkit shared
// by the experiment harness and the benchmark suite: medians with min/max
// error bars (matching the paper's plotting methodology), scaling series
// keyed by node count, and fixed-width text tables.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary condenses a set of repeated measurements the way the paper's plots
// do: median with min/max error bars across (typically five) repetitions.
//
// JSON carries only what a plot draws: a Point marshals as {Nodes, Median,
// Min, Max}, the schema of mkexperiments -json.
type Summary struct {
	N      int `json:"-"`
	Median float64
	Min    float64
	Max    float64
	Mean   float64 `json:"-"`
	Stddev float64 `json:"-"`
}

// Summarize computes a Summary over xs. It panics on an empty input: a
// summary of nothing is always a harness bug.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varSum += d * d
	}
	if len(xs) > 1 {
		s.Stddev = math.Sqrt(varSum / float64(len(xs)-1))
	}
	s.Median = Median(xs)
	return s
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Median of empty sample")
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	// Average the two central elements without overflowing for values
	// near the float64 range limits.
	return tmp[n/2-1]/2 + tmp[n/2]/2
}

// Rank is the package's single quantile definition: the p-th percentile
// (0..100) of a sorted n-element sample lies at fractional order-statistic
// position p/100*(n-1), linearly interpolated between the samples at
// positions lo and hi with weight frac on hi. Every percentile in the module
// — Percentile, BucketPercentile and the metrics histograms — derives
// from this one rule, so a figure table and an mkobs report can never
// disagree on the same data. It panics on n <= 0.
func Rank(n int, p float64) (lo, hi int, frac float64) {
	if n <= 0 {
		panic("stats: Rank of empty sample")
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	hi = int(math.Ceil(rank))
	if hi >= n {
		hi = n - 1
	}
	return lo, hi, rank - float64(lo)
}

// Percentile returns the p-th percentile (0..100) of xs under the Rank rule.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty sample")
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	lo, hi, frac := Rank(len(tmp), p)
	return tmp[lo]*(1-frac) + tmp[hi]*frac
}

// BucketPercentile computes the p-th percentile of a binned sample under the
// same Rank rule as Percentile: the count(i) samples of bucket i are treated
// as evenly spaced from the bucket's lower bound, so the j-th of them sits at
// lo + (hi-lo)*j/count. Binning loses within-bucket detail, so the result is
// exact only up to the bucket resolution; callers that track the true sample
// min/max should clamp into that range. Panics when total <= 0.
func BucketPercentile(total int64, p float64, buckets int, count func(int) int64, bounds func(int) (lo, hi float64)) float64 {
	if total <= 0 {
		panic("stats: BucketPercentile of empty sample")
	}
	rlo, rhi, frac := Rank(int(total), p)
	valueAt := func(k int) float64 {
		seen := int64(0)
		for i := 0; i < buckets; i++ {
			c := count(i)
			if c == 0 {
				continue
			}
			if int64(k) < seen+c {
				lo, hi := bounds(i)
				return lo + (hi-lo)*float64(int64(k)-seen)/float64(c)
			}
			seen += c
		}
		// k beyond the recorded samples: the last bucket's upper edge.
		for i := buckets - 1; i >= 0; i-- {
			if count(i) > 0 {
				_, hi := bounds(i)
				return hi
			}
		}
		return 0
	}
	a := valueAt(rlo)
	if rlo == rhi {
		return a
	}
	return a*(1-frac) + valueAt(rhi)*frac
}

// Histogram bins samples into equal-width buckets for text rendering.
type Histogram struct {
	Min, Max float64
	Counts   []int
	Total    int
}

// NewHistogram bins xs into n equal-width buckets spanning [min(xs),
// max(xs)]. It panics on empty input or non-positive n.
func NewHistogram(xs []float64, n int) *Histogram {
	if len(xs) == 0 {
		panic("stats: NewHistogram of empty sample")
	}
	if n <= 0 {
		panic("stats: NewHistogram with non-positive bucket count")
	}
	s := Summarize(xs)
	h := &Histogram{Min: s.Min, Max: s.Max, Counts: make([]int, n), Total: len(xs)}
	width := (s.Max - s.Min) / float64(n)
	for _, x := range xs {
		i := n - 1
		if width > 0 {
			i = int((x - s.Min) / width)
			if i >= n {
				i = n - 1
			}
			if i < 0 {
				i = 0
			}
		}
		h.Counts[i]++
	}
	return h
}

// Render draws the histogram as rows of hash bars (log-ish scaling keeps
// heavy-tailed distributions readable).
func (h *Histogram) Render(unit string) string {
	var b strings.Builder
	width := (h.Max - h.Min) / float64(len(h.Counts))
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.Counts {
		lo := h.Min + float64(i)*width
		bar := 0
		if c > 0 && maxCount > 0 {
			bar = 1 + int(39*math.Log1p(float64(c))/math.Log1p(float64(maxCount)))
		}
		fmt.Fprintf(&b, "%12.4g %-6s |%-40s %d\n", lo, unit, strings.Repeat("#", bar), c)
	}
	return b.String()
}
