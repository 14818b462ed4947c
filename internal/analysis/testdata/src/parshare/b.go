// Fixture for the parshare trace rules: capturing a trace sink across a
// par closure must be flagged (emission is single-goroutine by design),
// as must any package-level sink; per-job sinks built inside the closure
// and merged after the join must not.
package parshare

import (
	"mklite/internal/par"
	"mklite/internal/trace"
)

var globalSink *trace.Sink // want `package-level trace sink \*trace\.Sink "globalSink"`

var globalCounters = trace.NewCounters() // want `package-level trace sink \*trace\.Counters "globalCounters"`

func badSharedSink(sink *trace.Sink) []int {
	out, _ := par.MapWidthErr(0, 8, func(i int) (int, error) {
		sink.Count("jobs", 1) // want `par closure captures \*trace\.Sink "sink" from an enclosing scope`
		return i, nil
	})
	return out
}

func badSharedCounters() []int {
	ctrs := trace.NewCounters()
	out, _ := par.MapWidthErr(0, 8, func(i int) (int, error) {
		ctrs.Add("jobs", 1) // want `par closure captures \*trace\.Counters "ctrs" from an enclosing scope`
		return i, nil
	})
	return out
}

func badSharedEvents() []int {
	evs := trace.NewEvents(0)
	out, _ := par.MapWidthErr(0, 4, func(i int) (int, error) {
		evs.Emit(trace.Event{TS: int64(i)}) // want `par closure captures \*trace\.Events "evs" from an enclosing scope`
		return i, nil
	})
	return out
}

func goodPerJobSink() *trace.Counters {
	merged := trace.NewCounters()
	parts, _ := par.MapWidthErr(0, 8, func(i int) (map[string]int64, error) {
		ctrs := trace.NewCounters()
		sink := trace.NewSink(ctrs, nil)
		sink.Count("jobs", 1)
		return ctrs.Map(), nil
	})
	// Deterministic aggregation: merge in index order after the join.
	for _, m := range parts {
		merged.MergeMap(m)
	}
	return merged
}

func goodSinkOutsideClosure() int64 {
	// Using a sink outside any par closure is not parshare's business,
	// and a function-local sink is per-run state, not a package global.
	ctrs := trace.NewCounters()
	sink := trace.NewSink(ctrs, nil)
	sink.Count("runs", 1)
	return ctrs.Get("runs")
}
