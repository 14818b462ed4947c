package trace

import "testing"

// BenchmarkSinkDisabled pins the tracing-off fast path at the emission
// site: a Count on a nil *Sink must reduce to a nil test and return —
// single-digit nanoseconds, which is what makes always-on instrumentation
// of the hot loops affordable (<=2% on the Figure 4 smoke).
func BenchmarkSinkDisabled(b *testing.B) {
	var s *Sink
	for i := 0; i < b.N; i++ {
		s.Count("heap.queries", 1)
		s.CounterEvent(int64(i), 0, "offload.queue_depth", 1)
	}
}

// BenchmarkSinkCounting is the paid-when-asked cost: one map update per
// Count with the aggregating backend attached.
func BenchmarkSinkCounting(b *testing.B) {
	s := NewSink(NewCounters(), nil)
	for i := 0; i < b.N; i++ {
		s.Count("heap.queries", 1)
	}
}

// BenchmarkSinkEventing measures ring emission with the bounded Events
// backend attached (steady state: the ring is full and evicting).
func BenchmarkSinkEventing(b *testing.B) {
	s := NewSink(nil, NewEvents(1024))
	for i := 0; i < b.N; i++ {
		s.CounterEvent(int64(i), 0, "offload.queue_depth", int64(i&7))
	}
}

// BenchmarkSinkCountingKeyed is the interned fast path: one array index per
// CountKey. The gap between this and BenchmarkSinkCounting is what the key
// interning buys at every hot emission site (the root package's
// BenchmarkCountersOverhead budget rides on it).
func BenchmarkSinkCountingKeyed(b *testing.B) {
	s := NewSink(NewCounters(), nil)
	for i := 0; i < b.N; i++ {
		s.CountKey(KeyHeapQueries, 1)
	}
}
