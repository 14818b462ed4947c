package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestMedianOdd(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("Median = %v, want 2", m)
	}
}

func TestMedianEven(t *testing.T) {
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("Median = %v, want 2.5", m)
	}
}

func TestMedianSingleton(t *testing.T) {
	if m := Median([]float64{7}); m != 7 {
		t.Fatalf("Median = %v, want 7", m)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Median(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMedianEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty input")
		}
	}()
	Median(nil)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 6, 8, 10})
	if s.N != 5 || s.Min != 2 || s.Max != 10 || s.Median != 6 || s.Mean != 6 {
		t.Fatalf("bad summary: %+v", s)
	}
	// Sample stddev of {2,4,6,8,10} is sqrt(10).
	if math.Abs(s.Stddev-math.Sqrt(10)) > 1e-12 {
		t.Fatalf("stddev = %v", s.Stddev)
	}
}

func TestSummarizeSingleValueStddevZero(t *testing.T) {
	s := Summarize([]float64{3})
	if s.Stddev != 0 {
		t.Fatalf("stddev = %v for single value", s.Stddev)
	}
}

// Property: the median lies within [min, max] and summarize agrees with a
// direct sort-based computation.
func TestMedianBoundsProperty(t *testing.T) {
	check := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return s.Median >= sorted[0] && s.Median <= sorted[len(sorted)-1] &&
			s.Min == sorted[0] && s.Max == sorted[len(sorted)-1]
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {12.5, 15},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileClamps(t *testing.T) {
	xs := []float64{1, 2}
	if Percentile(xs, -5) != 1 || Percentile(xs, 200) != 2 {
		t.Fatal("out-of-range percentile not clamped")
	}
}

func TestSeriesAddKeepsOrder(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(64, Summarize([]float64{1}))
	s.Add(1, Summarize([]float64{2}))
	s.Add(8, Summarize([]float64{3}))
	got := s.NodeCounts()
	want := []int{1, 8, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node counts %v", got)
		}
	}
}

func TestSeriesAt(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(4, Summarize([]float64{9}))
	if p, ok := s.At(4); !ok || p.Median != 9 {
		t.Fatalf("At(4) = %+v, %v", p, ok)
	}
	if _, ok := s.At(5); ok {
		t.Fatal("At(5) found a phantom point")
	}
}

func TestSeriesRelativeTo(t *testing.T) {
	base := &Series{Name: "Linux"}
	base.Add(1, Summarize([]float64{100}))
	base.Add(2, Summarize([]float64{200}))
	lwk := &Series{Name: "McKernel"}
	lwk.Add(1, Summarize([]float64{110}))
	lwk.Add(2, Summarize([]float64{300}))
	lwk.Add(4, Summarize([]float64{999})) // no baseline point: dropped

	rel := lwk.RelativeTo(base)
	if len(rel.Points) != 2 {
		t.Fatalf("relative series has %d points, want 2", len(rel.Points))
	}
	if p, _ := rel.At(1); math.Abs(p.Median-1.1) > 1e-9 {
		t.Fatalf("relative at 1 node = %v", p.Median)
	}
	if p, _ := rel.At(2); math.Abs(p.Median-1.5) > 1e-9 {
		t.Fatalf("relative at 2 nodes = %v", p.Median)
	}
}

func TestSeriesMedians(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(1, Summarize([]float64{5}))
	s.Add(2, Summarize([]float64{7}))
	m := s.Medians()
	if len(m) != 2 || m[0] != 5 || m[1] != 7 {
		t.Fatalf("Medians = %v", m)
	}
}

func TestFigureGetAndRender(t *testing.T) {
	f := &Figure{ID: "fig0", Title: "test figure"}
	s := &Series{Name: "Linux", Unit: "zones/s"}
	s.Add(1, Summarize([]float64{10, 12, 11}))
	f.Series = append(f.Series, s)

	if f.Get("Linux") != s {
		t.Fatal("Get failed")
	}
	if f.Get("nope") != nil {
		t.Fatal("Get returned phantom series")
	}
	out := f.Render()
	if !strings.Contains(out, "fig0") || !strings.Contains(out, "Linux") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if !strings.Contains(out, "11") {
		t.Fatalf("render missing median:\n%s", out)
	}
}

func TestFigureRenderEmpty(t *testing.T) {
	f := &Figure{ID: "e", Title: "empty"}
	if !strings.Contains(f.Render(), "no series") {
		t.Fatal("empty figure render")
	}
}

func TestFigureRenderMissingPoints(t *testing.T) {
	f := &Figure{ID: "m", Title: "gaps"}
	a := &Series{Name: "A"}
	a.Add(1, Summarize([]float64{1}))
	b := &Series{Name: "B"}
	b.Add(2, Summarize([]float64{2}))
	f.Series = []*Series{a, b}
	out := f.Render()
	if !strings.Contains(out, "-") {
		t.Fatalf("expected gap markers:\n%s", out)
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer", "22")
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("render lines = %d:\n%s", len(lines), out)
	}
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("rows not aligned:\n%s", out)
	}
	if len(tb.rows) != 2 {
		t.Fatalf("%d rows, want 2", len(tb.rows))
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("x")
	if !strings.Contains(tb.Render(), "x") {
		t.Fatal("short row lost")
	}
}

func TestTableLongRowPanics(t *testing.T) {
	tb := NewTable("a")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on long row")
		}
	}()
	tb.AddRow("1", "2")
}

func TestTableAddRowf(t *testing.T) {
	tb := NewTable("n", "v")
	tb.AddRowf("%d|%.2f", 3, 1.5)
	if !strings.Contains(tb.Render(), "1.50") {
		t.Fatalf("AddRowf formatting:\n%s", tb.Render())
	}
}

func TestHistogramBinning(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h := NewHistogram(xs, 5)
	if h.Total != 10 || len(h.Counts) != 5 {
		t.Fatalf("histogram: %+v", h)
	}
	sum := 0
	for _, c := range h.Counts {
		sum += c
	}
	if sum != 10 {
		t.Fatalf("counts sum to %d", sum)
	}
	// Uniform data: every bucket gets 2.
	for i, c := range h.Counts {
		if c != 2 {
			t.Fatalf("bucket %d = %d", i, c)
		}
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram([]float64{5, 5, 5}, 4)
	sum := 0
	for _, c := range h.Counts {
		sum += c
	}
	if sum != 3 {
		t.Fatalf("degenerate counts: %v", h.Counts)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHistogram(nil, 3)
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram([]float64{1, 1, 1, 1, 2, 3}, 3)
	out := h.Render("us")
	if !strings.Contains(out, "#") || !strings.Contains(out, "us") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestRankMatchesPercentile(t *testing.T) {
	// Rank is the canonical definition; Percentile must be exactly its
	// application to a sorted sample.
	xs := []float64{9, 1, 4, 7, 2, 8, 3}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 99.9, 100} {
		lo, hi, frac := Rank(len(xs), p)
		want := sorted[lo]*(1-frac) + sorted[hi]*frac
		if got := Percentile(xs, p); got != want {
			t.Fatalf("Percentile(%v) = %v, Rank rule gives %v", p, got, want)
		}
	}
}

func TestRankBounds(t *testing.T) {
	lo, hi, frac := Rank(5, 0)
	if lo != 0 || hi != 0 || frac != 0 {
		t.Fatalf("Rank(5, 0) = %d,%d,%v", lo, hi, frac)
	}
	lo, hi, frac = Rank(5, 100)
	if lo != 4 || hi != 4 || frac != 0 {
		t.Fatalf("Rank(5, 100) = %d,%d,%v", lo, hi, frac)
	}
	// Out-of-range percentiles clamp rather than index out of bounds.
	if lo, hi, _ = Rank(3, 250); lo != 2 || hi != 2 {
		t.Fatalf("Rank(3, 250) = %d,%d", lo, hi)
	}
	if lo, hi, _ = Rank(3, -5); lo != 0 || hi != 0 {
		t.Fatalf("Rank(3, -5) = %d,%d", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Rank(0, 50) did not panic")
		}
	}()
	Rank(0, 50)
}

func TestBucketPercentileUniform(t *testing.T) {
	// 10 buckets of width 1, one sample each at the bucket's lower bound:
	// the binned percentile must equal the exact sample percentile.
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = float64(i)
	}
	counts := func(i int) int64 { return 1 }
	bounds := func(i int) (float64, float64) { return float64(i), float64(i + 1) }
	for _, p := range []float64{0, 25, 50, 90, 99, 100} {
		got := BucketPercentile(10, p, 10, counts, bounds)
		want := Percentile(xs, p)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("BucketPercentile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestHistogramPercentileAgreesWithSamples(t *testing.T) {
	// Binning quantizes values to the bucket grid, so the binned
	// percentile under the shared Rank rule must track the raw-sample
	// percentile to within one bucket width (and stay inside [Min, Max]).
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	h := NewHistogram(xs, 8)
	width := (h.Max - h.Min) / float64(len(h.Counts))
	for _, p := range []float64{0, 50, 75, 100} {
		got := h.Percentile(p)
		want := Percentile(xs, p)
		if math.Abs(got-want) > width {
			t.Fatalf("Histogram.Percentile(%v) = %v, want %v within %v", p, got, want, width)
		}
		if got < h.Min || got > h.Max {
			t.Fatalf("Histogram.Percentile(%v) = %v outside [%v, %v]", p, got, h.Min, h.Max)
		}
	}
}

func TestHistogramPercentileDegenerate(t *testing.T) {
	h := NewHistogram([]float64{42, 42, 42}, 4)
	for _, p := range []float64{0, 50, 100} {
		if got := h.Percentile(p); got != 42 {
			t.Fatalf("degenerate Percentile(%v) = %v, want 42", p, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty-histogram Percentile did not panic")
		}
	}()
	(&Histogram{Counts: make([]int, 4)}).Percentile(50)
}
