// Fixture for the parshare metrics rules: capturing a metrics registry or
// histogram across a par closure must be flagged (recording is plain
// int64 arithmetic under the single-goroutine contract), as must any
// package-level registry; per-job registries built inside the closure and
// merged after the join must not.
package parshare

import (
	"mklite/internal/metrics"
	"mklite/internal/par"
	"mklite/internal/trace"
)

var globalRegistry = metrics.NewRegistry() // want `package-level metrics registry \*metrics\.Registry "globalRegistry"`

var globalHistogram metrics.Histogram // want `package-level metrics registry metrics\.Histogram "globalHistogram"`

func badSharedRegistry() []int {
	reg := metrics.NewRegistry()
	out, _ := par.MapWidthErr(0, 8, func(i int) (int, error) {
		reg.Observe("latency_ns", int64(i)) // want `par closure captures \*metrics\.Registry "reg" from an enclosing scope`
		return i, nil
	})
	return out
}

func badSharedHistogram() []int {
	var h metrics.Histogram
	out, _ := par.MapWidthErr(0, 4, func(i int) (int, error) {
		h.Record(int64(i)) // want `par closure captures metrics\.Histogram "h" from an enclosing scope`
		return i, nil
	})
	return out
}

func goodPerJobRegistry() *metrics.Registry {
	merged := metrics.NewRegistry()
	parts, _ := par.MapWidthErr(0, 8, func(i int) (*metrics.Registry, error) {
		reg := metrics.NewRegistry()
		sink := trace.NewSinkObs(nil, nil, reg)
		sink.Observe("latency_ns", int64(i))
		return reg, nil
	})
	// Deterministic aggregation: merge in index order after the join.
	for _, r := range parts {
		merged.Merge(r)
	}
	return merged
}

func goodRegistryOutsideClosure() int64 {
	// Using a registry outside any par closure is not parshare's
	// business, and a function-local registry is per-run state.
	reg := metrics.NewRegistry()
	reg.Observe("latency_ns", 42)
	return reg.Histogram("latency_ns").Count()
}
