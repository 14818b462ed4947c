package metrics

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"mklite/internal/trace"
)

// TestBucketBoundsRoundTrip: every value must land in a bucket whose bounds
// contain it, across the exact region, the octave edges and the high range.
func TestBucketBoundsRoundTrip(t *testing.T) {
	values := []int64{0, 1, 2, 30, 31, 32, 33, 62, 63, 64, 65, 66,
		127, 128, 129, 1023, 1024, 1025, 1<<20 - 1, 1 << 20, 1<<20 + 1,
		1<<40 + 12345, 1<<62 + 99, math.MaxInt64}
	for _, v := range values {
		i := bucketIndex(v)
		lo, hi := bucketBounds(i)
		// The top octave's hi overflows to negative; treat it as +inf.
		if v < lo || (hi > lo && v >= hi) {
			t.Fatalf("value %d in bucket %d with bounds [%d, %d)", v, i, lo, hi)
		}
	}
	// Buckets tile the value axis: each bucket's hi is the next one's lo.
	for i := 0; i < 500; i++ {
		_, hi := bucketBounds(i)
		lo, _ := bucketBounds(i + 1)
		if hi != lo {
			t.Fatalf("gap between buckets %d and %d: hi %d, next lo %d", i, i+1, hi, lo)
		}
	}
	// Relative resolution: bucket width is at most ~1/32 of the value.
	for _, v := range values[5:] {
		lo, hi := bucketBounds(bucketIndex(v))
		if hi > lo && float64(hi-lo) > float64(lo)/float64(subBuckets)+1 {
			t.Fatalf("bucket [%d, %d) wider than the %d-sub-bucket resolution", lo, hi, subBuckets)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram reports non-zero aggregates")
	}
	if got := h.Percentile(50); got != 0 {
		t.Fatalf("empty Percentile(50) = %v, want 0", got)
	}
	// The nil histogram is the off switch: everything is a no-op.
	var nh *Histogram
	nh.Record(5)
	if nh.Count() != 0 || nh.Percentile(99) != 0 {
		t.Fatal("nil histogram recorded something")
	}
	h.Buckets(func(lo, hi, c int64) { t.Fatal("empty histogram has buckets") })
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Record(777)
	for _, p := range []float64{0, 50, 99.9, 100} {
		if got := h.Percentile(p); got != 777 {
			t.Fatalf("single-sample Percentile(%v) = %v, want 777", p, got)
		}
	}
	if h.Count() != 1 || h.Sum() != 777 || h.Min() != 777 || h.Max() != 777 {
		t.Fatalf("single-sample aggregates: count=%d sum=%d min=%d max=%d",
			h.Count(), h.Sum(), h.Min(), h.Max())
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Fatalf("negative sample not clamped: count=%d min=%d max=%d sum=%d",
			h.Count(), h.Min(), h.Max(), h.Sum())
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	// 1..1000 exactly once each: percentiles must match the exact sample
	// percentile to within the ~3% bucket resolution.
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	for _, p := range []float64{1, 25, 50, 90, 99, 99.9, 100} {
		got := h.Percentile(p)
		exact := 1 + p/100*999
		if rel := math.Abs(got-exact) / exact; rel > 1.0/subBuckets {
			t.Fatalf("Percentile(%v) = %v, exact %v, relative error %v", p, got, exact, rel)
		}
	}
	if h.Percentile(100) != 1000 {
		t.Fatalf("p100 = %v, want the exact max 1000", h.Percentile(100))
	}
	if h.Percentile(0) != 1 {
		t.Fatalf("p0 = %v, want the exact min 1", h.Percentile(0))
	}
}

// A histogram fed rising values, each in a new top bucket, reallocates its
// buckets O(log n) times over n buckets, not once per bucket, and exports
// the same counts as one fed the same values falling, which sizes its
// buckets on the first sample.
func TestHistogramGrowthAmortised(t *testing.T) {
	n := bucketIndex(1<<40) + 1
	rising, falling := &Histogram{}, &Histogram{}
	grows := 0
	for i := range n {
		lo, _ := bucketBounds(i)
		c := cap(rising.counts)
		rising.RecordN(lo, int64(i%3+1))
		if cap(rising.counts) != c {
			grows++
		}
		if len(rising.counts) != i+1 {
			t.Fatalf("after bucket %d: %d buckets", i, len(rising.counts))
		}
	}
	for i := n - 1; i >= 0; i-- {
		lo, _ := bucketBounds(i)
		falling.RecordN(lo, int64(i%3+1))
	}
	if limit := 2 * bits.Len(uint(n)); grows > limit {
		t.Errorf("%d buckets grown in %d reallocations, want at most %d", n, grows, limit)
	}
	type bucket struct{ lo, hi, count int64 }
	var got, want []bucket
	rising.Buckets(func(lo, hi, count int64) { got = append(got, bucket{lo, hi, count}) })
	falling.Buckets(func(lo, hi, count int64) { want = append(want, bucket{lo, hi, count}) })
	if !slices.Equal(got, want) || len(got) != n {
		t.Fatalf("rising values export %d buckets, falling %d of %d, or their counts differ", len(got), len(want), n)
	}
	if rising.Count() != falling.Count() || rising.Sum() != falling.Sum() ||
		rising.Min() != falling.Min() || rising.Max() != falling.Max() {
		t.Fatal("rising and falling values disagree on the aggregates")
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if rising.Percentile(p) != falling.Percentile(p) {
			t.Fatalf("rising and falling values disagree on Percentile(%v)", p)
		}
	}
}

func TestMergeAssociative(t *testing.T) {
	build := func(vals ...int64) *Histogram {
		h := &Histogram{}
		for _, v := range vals {
			h.Record(v)
		}
		return h
	}
	a := func() *Histogram { return build(1, 5, 1000) }
	b := func() *Histogram { return build(32, 33, 1<<20) }
	c := func() *Histogram { return build(7) }

	// (a+b)+c
	ab := a()
	ab.Merge(b())
	ab.Merge(c())
	// a+(b+c)
	bc := b()
	bc.Merge(c())
	abc := a()
	abc.Merge(bc)
	// c+(b+a) — commutativity too
	ba := b()
	ba.Merge(a())
	cba := c()
	cba.Merge(ba)

	for _, o := range []*Histogram{abc, cba} {
		if o.Count() != ab.Count() || o.Sum() != ab.Sum() || o.Min() != ab.Min() || o.Max() != ab.Max() {
			t.Fatal("merge order changed the aggregates")
		}
		for _, p := range []float64{0, 50, 99, 100} {
			if o.Percentile(p) != ab.Percentile(p) {
				t.Fatalf("merge order changed Percentile(%v)", p)
			}
		}
	}
	// Merging into an empty histogram preserves min.
	e := &Histogram{}
	e.Merge(build(9))
	if e.Min() != 9 || e.Max() != 9 || e.Count() != 1 {
		t.Fatal("merge into empty lost the sample")
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Observe("x", 1)
	r.ObserveRank("x", 0, 1)
	r.AddPhase("x", 1)
	r.SetGauge("x", 1)
	r.Merge(NewRegistry())
	if r.Histogram("x") != nil || r.Ranked("x") != nil {
		t.Fatal("nil registry returned state")
	}
	if rep := r.Report(); rep.Schema != Schema || len(rep.Hists) != 0 {
		t.Fatal("nil registry report not empty")
	}
}

func TestRegistryImplementsObserver(t *testing.T) {
	var _ trace.Observer = (*Registry)(nil)
	r := NewRegistry()
	s := trace.NewSinkObs(nil, nil, r)
	if !s.Observing() {
		t.Fatal("sink does not see the registry")
	}
	s.Observe("offload.latency_ns", 1500)
	s.ObserveRank("detour_ns", 2, 900)
	s.Phase("compute", 10_000)
	s.Gauge("heap.peak_bytes", 1<<20)
	if r.Histogram("offload.latency_ns").Count() != 1 {
		t.Fatal("Observe lost")
	}
	if hs := r.Ranked("detour_ns"); len(hs) != 3 || hs[2].Count() != 1 || hs[0].Count() != 0 {
		t.Fatal("ObserveRank family shape wrong")
	}
	if r.phases["compute"] != 10_000 || r.gauges["heap.peak_bytes"] != 1<<20 {
		t.Fatal("phase/gauge lost")
	}
}

func TestRegistryMergeRankedAndGauges(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.ObserveRank("d", 0, 10)
	b.ObserveRank("d", 3, 40)
	a.SetGauge("g", 1)
	b.SetGauge("g", 2)
	a.AddPhase("p", 5)
	b.AddPhase("p", 7)
	a.Merge(b)
	if hs := a.Ranked("d"); len(hs) != 4 || hs[0].Count() != 1 || hs[3].Count() != 1 {
		t.Fatal("rank-wise merge wrong")
	}
	if a.gauges["g"] != 2 {
		t.Fatal("gauge merge must take the merged-in (latest) value")
	}
	if a.phases["p"] != 12 {
		t.Fatal("phase merge must add")
	}
}

func TestReportRoundTripAndRender(t *testing.T) {
	r := NewRegistry()
	r.AddPhase("compute", 3_000_000_000)
	r.AddPhase("noise", 1_000_000_000)
	r.SetGauge("ranks", 64)
	for v := int64(100); v <= 100_000; v *= 10 {
		r.Observe("detour_ns", v)
	}
	r.ObserveRank("offload_ns", 1, 2_000)

	var buf bytes.Buffer
	rep := r.Report()
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Hists["detour_ns"].Count != 4 || back.Hists["detour_ns"].Max != 100_000 {
		t.Fatalf("round trip lost the histogram: %+v", back.Hists["detour_ns"])
	}
	if back.Phases["compute"] != 3_000_000_000 || back.Gauges["ranks"] != 64 {
		t.Fatal("round trip lost phases/gauges")
	}
	if len(back.Ranked["offload_ns"]) != 2 {
		t.Fatal("round trip lost the ranked family")
	}
	// Rendering is deterministic and mentions every section.
	text := rep.Render()
	if text != rep.Render() {
		t.Fatal("Render is not deterministic")
	}
	for _, want := range []string{"phases", "compute", "75.0%", "distributions", "detour_ns", "per-rank: offload_ns", "gauges"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
	if _, err := ReadReport([]byte(`{"schema":"mklite-metrics/v0"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func TestDiff(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.AddPhase("compute", 100)
	b.AddPhase("compute", 150)
	a.Observe("d", 10)
	b.Observe("d", 10)
	b.Observe("d", 1000)
	out := Diff(a.Report(), b.Report())
	if !strings.Contains(out, "compute") || !strings.Contains(out, "+50.0%") {
		t.Fatalf("diff missing phase delta:\n%s", out)
	}
	if !strings.Contains(out, "1 -> 2") {
		t.Fatalf("diff missing count delta:\n%s", out)
	}
	if same := Diff(a.Report(), a.Report()); same != "" {
		t.Fatalf("self-diff not empty:\n%s", same)
	}

	// Every field counts, not only the phase and headline columns.
	mk := func() *Report {
		return &Report{
			Schema: Schema,
			Gauges: map[string]int64{"g": 1},
			Hists:  map[string]HistReport{"h": {Count: 1, Sum: 5}},
			Ranked: map[string][]HistReport{"r": {{Count: 1}}},
		}
	}
	for _, tc := range []struct {
		key  string
		edit func(*Report)
	}{
		{"g", func(r *Report) { r.Gauges["g"] = 2 }},
		{"h", func(r *Report) { r.Hists["h"] = HistReport{Count: 1, Sum: 6} }},
		{"r", func(r *Report) { r.Ranked["r"][0].P90 = 1 }},
	} {
		other := mk()
		tc.edit(other)
		if out := Diff(mk(), other); !strings.Contains(out, "\n"+tc.key+" ") {
			t.Fatalf("diff misses a change to %q:\n%s", tc.key, out)
		}
	}
}

func TestFolded(t *testing.T) {
	ev := func(ph byte, ts int64, tid int32, name string) trace.Event {
		return trace.Event{Name: name, Ph: ph, TS: ts, Tid: tid}
	}
	events := []trace.Event{
		ev(trace.PhBegin, 0, 0, "step"),
		ev(trace.PhBegin, 0, 0, "compute"),
		ev(trace.PhEnd, 600, 0, "compute"),
		ev(trace.PhBegin, 600, 0, "noise"),
		ev(trace.PhEnd, 1000, 0, "noise"),
		ev(trace.PhEnd, 1000, 0, "step"),
		// A second lane interleaved with the first.
		ev(trace.PhBegin, 100, 1, "compute"),
		ev(trace.PhEnd, 400, 1, "compute"),
	}
	got := Folded(events)
	want := "pid0/tid0;step;compute 600\n" +
		"pid0/tid0;step;noise 400\n" +
		"pid0/tid1;compute 300\n"
	if got != want {
		t.Fatalf("Folded:\n%s\nwant:\n%s", got, want)
	}
	// "step" has zero self time (fully covered by children) so it emits no
	// line of its own — flame viewers reconstruct it from the stack paths.
	if strings.Contains(got, "step 0") || strings.Contains(got, "step \n") {
		t.Fatal("zero-weight frame emitted")
	}
}

func TestFoldedLenient(t *testing.T) {
	events := []trace.Event{
		{Name: "orphan", Ph: trace.PhEnd, TS: 10},           // no open span
		{Name: "open", Ph: trace.PhBegin, TS: 20},           // never closed
		{Name: "point", Ph: trace.PhInstant, TS: 30},        // no duration
		{Name: "ctr", Ph: trace.PhCounter, TS: 30},          // no duration
		{Name: "ok", Ph: trace.PhBegin, TS: 40, Tid: 2},     //
		{Name: "mismatch", Ph: trace.PhEnd, TS: 50, Tid: 2}, // wrong name
		{Name: "ok", Ph: trace.PhEnd, TS: 60, Tid: 2},       //
	}
	got := Folded(events)
	if got != "pid0/tid2;ok 20\n" {
		t.Fatalf("lenient folding produced:\n%q", got)
	}
}

func TestFoldedFromJSON(t *testing.T) {
	e := trace.NewEvents(0)
	s := trace.NewSink(nil, e)
	s.Begin(0, 0, 0, "step", "cluster")
	s.Begin(1000, 0, 0, "compute", "cluster")
	s.End(251_000, 0, 0, "compute", "cluster")
	s.End(252_000, 0, 0, "step", "cluster")
	folded, err := FoldedFromJSON(e.JSON())
	if err != nil {
		t.Fatal(err)
	}
	want := "pid0/tid0;step 2000\npid0/tid0;step;compute 250000\n"
	if folded != want {
		t.Fatalf("FoldedFromJSON:\n%q\nwant:\n%q", folded, want)
	}
	if _, err := FoldedFromJSON([]byte(`{"traceEvents":[],"otherData":{"schema":"x"}}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}

	// An evicting ring: the export drops the oldest events (leaving
	// orphaned ends) and must fold exactly as the retained events do.
	ring := trace.NewEvents(4)
	rs := trace.NewSink(nil, ring)
	rs.Begin(0, 0, 0, "run", "cluster")
	for i := range int64(3) {
		rs.Begin(1000*i, 0, 0, "step", "cluster")
		rs.End(1000*i+500, 0, 0, "step", "cluster")
	}
	rs.End(5000, 0, 0, "run", "cluster")
	folded, err = FoldedFromJSON(ring.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if want := Folded(ring.Snapshot()); folded != want || want != "pid0/tid0;step 500\n" {
		t.Fatalf("evicting ring: FoldedFromJSON %q, Folded(Snapshot) %q", folded, want)
	}
}
