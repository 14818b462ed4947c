package metrics

import (
	"maps"
	"slices"
)

// Registry is one run's metrics destination: named latency histograms,
// per-rank histogram families, per-phase virtual-time accumulators and
// gauges. It implements trace.Observer, so attaching it to the run's sink
// (trace.NewSinkObs) feeds it from every instrumented emission site.
//
// A Registry is per-run, single-goroutine state — the same contract as
// *trace.Sink, enforced by the same mklint parshare analyzer: never a
// package-level variable, never captured across internal/par worker
// closures. Fan-outs create one registry per job inside the closure and
// Merge in index order after the join. The nil *Registry is the off switch:
// every method is nil-receiver safe and records nothing.
type Registry struct {
	hists  map[string]*Histogram
	ranked map[string][]*Histogram
	phases map[string]int64
	gauges map[string]int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:  map[string]*Histogram{},
		ranked: map[string][]*Histogram{},
		phases: map[string]int64{},
		gauges: map[string]int64{},
	}
}

// Observe records one sample of the named distribution (trace.Observer).
func (r *Registry) Observe(name string, v int64) {
	if r == nil {
		return
	}
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	h.Record(v)
}

// ObserveRank records one sample of the named distribution attributed to a
// rank (trace.Observer). Ranks are dense small integers (MPI ranks, node
// cores); negative ranks are ignored.
func (r *Registry) ObserveRank(name string, rank int, v int64) {
	if r == nil || rank < 0 {
		return
	}
	hs := r.ranked[name]
	for len(hs) <= rank {
		hs = append(hs, &Histogram{})
	}
	r.ranked[name] = hs
	hs[rank].Record(v)
}

// AddPhase accumulates d virtual nanoseconds into the named phase
// (trace.Observer).
func (r *Registry) AddPhase(name string, d int64) {
	if r == nil {
		return
	}
	r.phases[name] += d
}

// SetGauge sets the named gauge to its latest value (trace.Observer).
func (r *Registry) SetGauge(name string, v int64) {
	if r == nil {
		return
	}
	r.gauges[name] = v
}

// Histogram returns the named distribution (nil when never observed).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.hists[name]
}

// Ranked returns the named per-rank family (nil when never observed).
// Index i is rank i's histogram; ranks that never recorded hold empty
// histograms, not nils.
func (r *Registry) Ranked(name string) []*Histogram {
	if r == nil {
		return nil
	}
	return r.ranked[name]
}

// Merge folds every observation of o into r. Histograms and phases add
// (associative, order-free); per-rank families merge rank-wise, growing as
// needed; gauges are latest-value state, so o's value wins — merge in index
// order (par's result order) to keep the outcome schedule-independent.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	for _, name := range slices.Sorted(maps.Keys(o.hists)) {
		h := r.hists[name]
		if h == nil {
			h = &Histogram{}
			r.hists[name] = h
		}
		h.Merge(o.hists[name])
	}
	for _, name := range slices.Sorted(maps.Keys(o.ranked)) {
		ohs := o.ranked[name]
		hs := r.ranked[name]
		for len(hs) < len(ohs) {
			hs = append(hs, &Histogram{})
		}
		r.ranked[name] = hs
		for i, oh := range ohs {
			hs[i].Merge(oh)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(o.phases)) {
		r.phases[name] += o.phases[name]
	}
	for _, name := range slices.Sorted(maps.Keys(o.gauges)) {
		r.gauges[name] = o.gauges[name]
	}
}
